//! Crash-safe on-disk persistence for the result cache.
//!
//! Exact posteriors are deterministic functions of the canonical program
//! and options, so a rendered `200` response can be replayed byte-for-byte
//! across process restarts. This module stores them in a single
//! **append-only segment file** (`results.seg`) inside `--cache-dir`:
//!
//! ```text
//! header:  "BAYC" magic (4 bytes) | format version (u32 LE)
//! record:  payload length (u32 LE) | CRC32 of payload (u32 LE) | payload
//! payload: cache key (u64 LE) | rendered response body (UTF-8 JSON)
//! ```
//!
//! Durability and corruption semantics:
//!
//! * **Write-behind** — inserts into the in-memory LRU enqueue an append
//!   onto a dedicated writer thread; each record is `fsync`ed before the
//!   `persist_writes` counter increments, so an observer of that counter
//!   (e.g. the CI crash harness) knows the record survives `SIGKILL`.
//! * **Warm load** — on startup the segment is scanned sequentially. A
//!   record whose CRC does not match is *skipped* (the length prefix still
//!   frames it); a record whose framing is implausible (bad length, past
//!   end-of-file) marks a torn tail: the file is truncated back to the last
//!   well-framed byte so future appends re-establish a clean log. Both are
//!   counted in `persist_load_corrupt`, never fatal. A bad or
//!   version-mismatched header discards the segment and starts fresh.
//! * **Compaction** — when the segment outgrows `max_bytes`, the writer
//!   snapshots the live LRU entries and rewrites them (least- to
//!   most-recently used) into a fresh segment via temp-file + atomic
//!   rename ([`bayonet_net::atomic_write`]), dropping dead appends and
//!   CRC-failed carcasses.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use bayonet_net::atomic_write;

/// Name of the segment file inside `--cache-dir`.
pub const SEGMENT_FILE: &str = "results.seg";

/// Default `--cache-max-bytes`: compaction threshold for the segment file.
pub const DEFAULT_CACHE_MAX_BYTES: u64 = 64 * 1024 * 1024;

const MAGIC: [u8; 4] = *b"BAYC";
/// Bumped whenever the cache key scheme changes, so records stored under
/// old keys are discarded on load instead of never matching again, and
/// whenever a fresh run of a key would answer differently (version 3: the
/// engine `stats` of programs the deleted fold and dead-flip passes used to
/// rewrite; version 4: the transition-DAG engine's `expansions`,
/// `peak_configs` and `merge_hits`).
const FORMAT_VERSION: u32 = 4;
const HEADER_LEN: usize = 8;
/// A payload is a key plus one JSON response body; anything claiming to be
/// larger than this is treated as framing corruption, not data.
const MAX_RECORD_PAYLOAD: u32 = 64 * 1024 * 1024;
/// Pending write-behind appends beyond this are dropped (persistence is
/// best-effort; the in-memory cache is unaffected).
const WRITE_QUEUE_CAPACITY: usize = 1024;

/// Where and how large the persistent cache may be.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the segment file (created if missing).
    pub dir: PathBuf,
    /// Compaction threshold: when the segment file exceeds this many
    /// bytes, live LRU entries are rewritten into a fresh segment.
    pub max_bytes: u64,
}

/// Shared persistence counters, exported through `/metrics`.
#[derive(Debug, Default)]
pub struct PersistCounters {
    /// Records durably appended (incremented *after* `fsync`).
    pub writes: AtomicU64,
    /// Records loaded successfully at startup.
    pub load_ok: AtomicU64,
    /// Records skipped at startup: CRC mismatch, torn tail, bad header,
    /// or non-UTF-8 body.
    pub load_corrupt: AtomicU64,
    /// Segment rewrites triggered by the size bound.
    pub compactions: AtomicU64,
    /// Current segment file size in bytes.
    pub size_bytes: AtomicU64,
}

/// Callback producing the live cache entries, least- to most-recently
/// used, for compaction.
pub type SnapshotFn = Box<dyn Fn() -> Vec<(u64, Vec<u8>)> + Send>;

enum Msg {
    Append { key: u64, body: Vec<u8> },
}

/// Handle to the persistent segment: owns the write-behind thread.
///
/// Dropping the store flushes every queued append (the writer drains its
/// channel) and joins the thread, so a graceful shutdown loses nothing.
pub struct PersistentStore {
    tx: Option<SyncSender<Msg>>,
    writer: Option<JoinHandle<()>>,
    counters: Arc<PersistCounters>,
}

impl PersistentStore {
    /// Opens (or creates) the segment under `config.dir`, warm-loading
    /// surviving records, and spawns the write-behind thread.
    ///
    /// Returns the store plus the loaded `(key, body)` pairs in file
    /// order — oldest first, so inserting them sequentially into an LRU
    /// reproduces the pre-crash recency order.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or the segment cannot be
    /// opened; *corrupt contents are never an error*, only counted.
    pub fn open(
        config: &PersistConfig,
        snapshot: SnapshotFn,
    ) -> io::Result<(PersistentStore, Vec<(u64, String)>)> {
        std::fs::create_dir_all(&config.dir)?;
        let path = config.dir.join(SEGMENT_FILE);
        let counters = Arc::new(PersistCounters::default());
        let loaded = load_segment(&path, &counters)?;

        let file = OpenOptions::new().append(true).open(&path)?;
        let size = file.metadata()?.len();
        counters.size_bytes.store(size, Ordering::Relaxed);

        let (tx, rx) = sync_channel::<Msg>(WRITE_QUEUE_CAPACITY);
        let writer_counters = Arc::clone(&counters);
        let max_bytes = config.max_bytes.max(1);
        let writer = std::thread::spawn(move || {
            writer_loop(rx, file, path, size, max_bytes, snapshot, writer_counters);
        });

        Ok((
            PersistentStore {
                tx: Some(tx),
                writer: Some(writer),
                counters,
            },
            loaded,
        ))
    }

    /// Enqueues one record for durable append. Non-blocking: if the
    /// write-behind queue is full the record is dropped (it can be
    /// recomputed; the in-memory cache still holds it).
    pub fn append(&self, key: u64, body: Vec<u8>) {
        if let Some(tx) = &self.tx {
            let _ = tx.try_send(Msg::Append { key, body });
        }
    }

    /// The shared counters (for `/metrics`).
    pub fn counters(&self) -> Arc<PersistCounters> {
        Arc::clone(&self.counters)
    }
}

impl Drop for PersistentStore {
    fn drop(&mut self) {
        drop(self.tx.take()); // writer drains the queue, then exits
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

fn writer_loop(
    rx: Receiver<Msg>,
    mut file: File,
    path: PathBuf,
    mut size: u64,
    max_bytes: u64,
    snapshot: SnapshotFn,
    counters: Arc<PersistCounters>,
) {
    // Compaction triggers above this; raised past `max_bytes` when a
    // compacted live set is itself large, so a segment that *cannot*
    // shrink below the bound is not rewritten on every append.
    let mut compact_above = max_bytes;
    while let Ok(Msg::Append { key, body }) = rx.recv() {
        let record = encode_record(key, &body);
        if file
            .write_all(&record)
            .and_then(|()| file.sync_data())
            .is_err()
        {
            // Disk trouble: stop persisting, keep serving from memory.
            return;
        }
        size += record.len() as u64;
        counters.size_bytes.store(size, Ordering::Relaxed);
        counters.writes.fetch_add(1, Ordering::Relaxed);

        if size > compact_above {
            let mut bytes = Vec::with_capacity(HEADER_LEN);
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            for (key, body) in snapshot() {
                bytes.extend_from_slice(&encode_record(key, &body));
            }
            let reopened = atomic_write(&path, &bytes)
                .and_then(|()| OpenOptions::new().append(true).open(&path));
            match reopened {
                Ok(f) => {
                    file = f;
                    size = bytes.len() as u64;
                    counters.size_bytes.store(size, Ordering::Relaxed);
                    counters.compactions.fetch_add(1, Ordering::Relaxed);
                    compact_above = max_bytes.max(2 * size);
                }
                Err(_) => return,
            }
        }
    }
}

fn encode_record(key: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + body.len());
    payload.extend_from_slice(&key.to_le_bytes());
    payload.extend_from_slice(body);
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Scans the segment, returning surviving records in file order and
/// leaving the file well-framed (torn tails truncated away).
fn load_segment(path: &Path, counters: &PersistCounters) -> io::Result<Vec<(u64, String)>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            atomic_write(path, &header)?;
            return Ok(Vec::new());
        }
        Err(e) => return Err(e),
    };

    let header_ok = bytes.len() >= HEADER_LEN
        && bytes[..4] == MAGIC
        && bytes[4..8] == FORMAT_VERSION.to_le_bytes();
    if !header_ok {
        // Unknown format or version: everything in it is unreadable.
        counters.load_corrupt.fetch_add(1, Ordering::Relaxed);
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        atomic_write(path, &header)?;
        return Ok(Vec::new());
    }

    let mut entries = Vec::new();
    let mut offset = HEADER_LEN;
    let mut well_framed_end = offset;
    while offset < bytes.len() {
        let Some(frame) = bytes.get(offset..offset + 8) else {
            // Fewer than 8 bytes left: a torn length/CRC prefix.
            counters.load_corrupt.fetch_add(1, Ordering::Relaxed);
            break;
        };
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        if len < 8 || len > MAX_RECORD_PAYLOAD as usize || offset + 8 + len > bytes.len() {
            // Implausible length: the frame itself is damaged or the
            // record was cut off mid-write. Nothing after it can be
            // trusted to be framed.
            counters.load_corrupt.fetch_add(1, Ordering::Relaxed);
            break;
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        offset += 8 + len;
        if crc32(payload) != crc {
            // Framing is intact, contents are not: skip just this record.
            counters.load_corrupt.fetch_add(1, Ordering::Relaxed);
            well_framed_end = offset;
            continue;
        }
        let key = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        match String::from_utf8(payload[8..].to_vec()) {
            Ok(body) => {
                counters.load_ok.fetch_add(1, Ordering::Relaxed);
                entries.push((key, body));
            }
            Err(_) => {
                counters.load_corrupt.fetch_add(1, Ordering::Relaxed);
            }
        }
        well_framed_end = offset;
    }

    if well_framed_end < bytes.len() {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(well_framed_end as u64)?;
        f.sync_all()?;
    }
    Ok(entries)
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Seq;

    fn temp_cfg(tag: &str, max_bytes: u64) -> PersistConfig {
        static SEQ: Seq = Seq::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bayonet-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        PersistConfig { dir, max_bytes }
    }

    fn no_snapshot() -> SnapshotFn {
        Box::new(Vec::new)
    }

    fn open(cfg: &PersistConfig) -> (PersistentStore, Vec<(u64, String)>) {
        open_with(cfg, no_snapshot())
    }

    fn open_with(cfg: &PersistConfig, snap: SnapshotFn) -> (PersistentStore, Vec<(u64, String)>) {
        PersistentStore::open(cfg, snap).expect("open store")
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrips_records_across_reopen() {
        let cfg = temp_cfg("roundtrip", u64::MAX);
        let (store, loaded) = open(&cfg);
        assert!(loaded.is_empty());
        store.append(1, br#"{"a":1}"#.to_vec());
        store.append(2, br#"{"b":2}"#.to_vec());
        store.append(3, br#"{"c":3}"#.to_vec());
        drop(store); // flush + join

        let (store, loaded) = open(&cfg);
        assert_eq!(
            loaded,
            vec![
                (1, r#"{"a":1}"#.to_string()),
                (2, r#"{"b":2}"#.to_string()),
                (3, r#"{"c":3}"#.to_string()),
            ]
        );
        assert_eq!(store.counters().load_ok.load(Ordering::Relaxed), 3);
        assert_eq!(store.counters().load_corrupt.load(Ordering::Relaxed), 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn bit_flip_skips_only_the_damaged_record() {
        let cfg = temp_cfg("bitflip", u64::MAX);
        let (store, _) = open(&cfg);
        store.append(10, b"0123456789".to_vec());
        store.append(11, b"abcdefghij".to_vec());
        drop(store);

        let path = cfg.dir.join(SEGMENT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's body (header 8 + frame 8 +
        // key 8 puts the body at offset 24).
        bytes[25] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (store, loaded) = open(&cfg);
        assert_eq!(loaded, vec![(11, "abcdefghij".to_string())]);
        assert_eq!(store.counters().load_ok.load(Ordering::Relaxed), 1);
        assert_eq!(store.counters().load_corrupt.load(Ordering::Relaxed), 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let cfg = temp_cfg("torn", u64::MAX);
        let (store, _) = open(&cfg);
        store.append(20, b"first-record".to_vec());
        store.append(21, b"second-record".to_vec());
        drop(store);

        let path = cfg.dir.join(SEGMENT_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap(); // cut into the second record
        drop(f);

        let (store, loaded) = open(&cfg);
        assert_eq!(loaded, vec![(20, "first-record".to_string())]);
        assert_eq!(store.counters().load_corrupt.load(Ordering::Relaxed), 1);
        // The torn bytes are gone; a fresh append lands on a clean frame.
        store.append(22, b"third-record".to_vec());
        drop(store);

        let (store, loaded) = open(&cfg);
        assert_eq!(
            loaded,
            vec![
                (20, "first-record".to_string()),
                (22, "third-record".to_string()),
            ]
        );
        assert_eq!(store.counters().load_corrupt.load(Ordering::Relaxed), 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn unknown_header_starts_fresh_and_counts_corrupt() {
        let cfg = temp_cfg("header", u64::MAX);
        std::fs::create_dir_all(&cfg.dir).unwrap();
        std::fs::write(cfg.dir.join(SEGMENT_FILE), b"NOPE\x09\x00\x00\x00junk").unwrap();

        let (store, loaded) = open(&cfg);
        assert!(loaded.is_empty());
        assert_eq!(store.counters().load_corrupt.load(Ordering::Relaxed), 1);
        store.append(30, b"after-reset".to_vec());
        drop(store);

        let (_store, loaded) = open(&cfg);
        assert_eq!(loaded, vec![(30, "after-reset".to_string())]);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn compaction_rewrites_live_entries_within_bound() {
        // Tiny bound: every append overflows it, so the writer compacts
        // down to whatever the snapshot reports as live.
        let cfg = temp_cfg("compact", 64);
        let live: Arc<Vec<(u64, Vec<u8>)>> = Arc::new(vec![(7, b"live-entry".to_vec())]);
        let snap_live = Arc::clone(&live);
        let (store, _) = open_with(&cfg, Box::new(move || snap_live.as_ref().clone()));
        let counters = store.counters();
        for i in 0..50u64 {
            store.append(i, vec![b'x'; 100]);
        }
        drop(store); // joins the writer: all appends and compactions done
        assert!(counters.compactions.load(Ordering::Relaxed) >= 1);

        let (store, loaded) = open(&cfg);
        // Everything except the snapshot's live set (plus at most the
        // appends after the final compaction) was dropped.
        assert!(
            loaded.iter().any(|(k, _)| *k == 7),
            "live entry survived: {loaded:?}"
        );
        assert!(loaded.len() < 50, "compaction never ran: {}", loaded.len());
        drop(store);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}
