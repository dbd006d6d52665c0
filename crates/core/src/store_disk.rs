//! The durable backend of the artifact store: an append-only,
//! CRC-checked artifact log on disk.
//!
//! `stamp batch --store DIR` keeps one log file per store directory.
//! Each record persists one `(phase, fingerprint)` artifact in the
//! versioned binary encoding of `stamp_codec`; the header pins the log
//! format and a schema fingerprint over every artifact codec, so a
//! stale or foreign log is recreated rather than misread. Corruption is
//! never fatal: a record with a bad CRC (or a truncated tail from a
//! killed process) marks the end of the valid prefix — the log is
//! truncated there, a warning is surfaced, and the affected artifacts
//! are simply recomputed.
//!
//! Soundness note: the on-disk key is the same chained input
//! fingerprint that keys the in-memory store, so disk reuse inherits
//! the soundness argument of `artifact.rs` — plus the CRC and strict
//! decoding guard against the log itself rotting. Errors are *not*
//! persisted (unlike the in-memory store): an environment-dependent
//! failure must not poison later runs.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use stamp_codec::crc32;

use crate::artifact::STORED;
use crate::fingerprint::{Fingerprint, Fp};
use crate::phase::PhaseId;

const MAGIC: &[u8; 8] = b"STAMPART";
/// Log container format (header + record framing).
const FORMAT_VERSION: u32 = 1;
/// Version of the artifact encodings themselves. Bump on any
/// incompatible change to a `Codec` impl reachable from a phase
/// artifact; old logs are then discarded wholesale instead of being
/// misdecoded.
const ARTIFACT_CODEC_VERSION: u32 = 8;

/// Name of the log file inside a store directory.
const LOG_NAME: &str = "artifacts.log";

const HEADER_LEN: u64 = 8 + 4 + 16;
/// Record framing: payload length + CRC32 of the payload.
const RECORD_HEADER_LEN: usize = 4 + 4;
/// Payload prefix: phase byte + 16-byte fingerprint.
const PAYLOAD_KEY_LEN: usize = 1 + 16;

/// Fingerprint over everything that defines artifact-bytes
/// compatibility: the codec version and the stored-phase vocabulary.
fn schema_fingerprint() -> Fingerprint {
    let mut fp = Fp::new("stamp/store-disk/schema");
    fp.u32(ARTIFACT_CODEC_VERSION);
    for p in STORED {
        fp.str(p.name());
    }
    fp.finish()
}

/// The append-side sink of the log. Production is the log file;
/// tests inject failing writers to exercise degradation.
pub(crate) trait LogSink: Write + Send {}
impl<T: Write + Send> LogSink for T {}

/// Where a record sits in the log: its first byte and its payload
/// length (the framed record is `RECORD_HEADER_LEN` longer).
type Loc = (u64, u32);

struct Inner {
    sink: Box<dyn LogSink>,
    /// Every key in the log, with where its record sits. No record
    /// bytes are held here: a claim reads its record back from the file.
    index: HashMap<(PhaseId, Fingerprint), Loc>,
    /// The log offset the next appended record lands at.
    end: u64,
    /// Set on the first write failure: persistence is off for the rest
    /// of this process. Records already indexed stay readable.
    degraded: bool,
    /// The degradation warning, waiting to be surfaced exactly once.
    pending_warning: Option<String>,
}

/// A durable artifact log (see the module docs). One per
/// `--store DIR`; shared behind the [`crate::ArtifactStore`].
///
/// # Fault tolerance
///
/// Writes are best-effort: the first append that fails (disk full,
/// permission lost mid-run) flips the store into *degraded* mode — no
/// further writes are attempted, one warning is queued for the caller
/// to surface ([`DiskStore::take_warning`]), and [`DiskStore::append`]
/// reports the artifact as not durable, so the
/// [`crate::ArtifactStore`] keeps serving it from its in-memory slot.
/// Reads are checked again after open: a record that is short,
/// unreadable or no longer matches its key (the log was truncated or
/// rewritten under a running process) is evicted and recomputed.
/// Analysis results are never affected; only durability is lost.
pub(crate) struct DiskStore {
    path: PathBuf,
    /// The log file for positional record reads, taken outside `inner`.
    log: File,
    inner: Mutex<Inner>,
}

impl DiskStore {
    /// Opens (or creates) the artifact log in `dir`, indexing every
    /// valid record by its offset. Recoverable problems —
    /// version/schema mismatch, CRC failure, truncated tail — are
    /// reported as warnings and resolved by truncating the log back to
    /// its valid prefix; only genuine I/O errors fail the open.
    pub(crate) fn open(dir: &Path) -> io::Result<(DiskStore, Vec<String>)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(LOG_NAME);
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut warnings = Vec::new();
        let file_len = file.metadata()?.len();

        let mut reader = BufReader::new(&file);
        let mut header = [0u8; HEADER_LEN as usize];
        let header_ok = file_len >= HEADER_LEN && {
            reader.read_exact(&mut header)?;
            &header[..8] == MAGIC
                && header[8..12] == FORMAT_VERSION.to_le_bytes()
                && header[12..28] == schema_fingerprint().to_bytes()
        };
        if file_len > 0 && !header_ok {
            warnings.push(format!(
                "artifact store {}: incompatible header; starting fresh",
                path.display()
            ));
        }

        // Scan records; stop (and truncate) at the first invalid one.
        let mut index = HashMap::new();
        let mut end = HEADER_LEN;
        if header_ok {
            let mut record = Vec::new();
            while end < file_len {
                let Some((key, len)) = scan_record(&mut reader, file_len - end, &mut record)?
                else {
                    warnings.push(format!(
                        "artifact store {}: corrupt or truncated record at byte {end}; \
                         dropping the log tail ({} artifacts kept)",
                        path.display(),
                        index.len()
                    ));
                    break;
                };
                index.insert(key, (end, len));
                end += (RECORD_HEADER_LEN + len as usize) as u64;
            }
        }
        drop(reader);

        if !header_ok {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            file.write_all(&schema_fingerprint().to_bytes())?;
            file.flush()?;
        } else if end < file_len {
            file.set_len(end)?;
        }
        file.seek(SeekFrom::Start(end))?;
        let log = file.try_clone()?;
        let inner =
            Inner { sink: Box::new(file), index, end, degraded: false, pending_warning: None };
        Ok((DiskStore { path, log, inner: Mutex::new(inner) }, warnings))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("no thread panics while holding the log index")
    }

    /// The log file's path (for warnings and reports).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Number of artifacts currently held on disk.
    pub(crate) fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Reads a key's artifact bytes back from the log, as often as
    /// asked. The record is read with one positional read outside the
    /// index lock and checked again — framed length, CRC and key — so a
    /// log truncated or rewritten since open yields `None` and the key is
    /// evicted (the artifact is then recomputed and appended anew).
    pub(crate) fn read(&self, phase: PhaseId, fp: Fingerprint) -> Option<Vec<u8>> {
        let loc = *self.lock().index.get(&(phase, fp))?;
        let mut record = vec![0; RECORD_HEADER_LEN + loc.1 as usize];
        let read = self.log.read_exact_at(&mut record, loc.0);
        if read.is_err() || parse_record(&record) != Some((phase, fp)) {
            let mut inner = self.lock();
            // Only the location this read found wanting: a record
            // appended anew since then stays.
            if inner.index.get(&(phase, fp)) == Some(&loc) {
                inner.index.remove(&(phase, fp));
            }
            return None;
        }
        record.drain(..RECORD_HEADER_LEN + PAYLOAD_KEY_LEN);
        Some(record)
    }

    /// Drops a key from the in-memory index (after a decode failure);
    /// the on-disk record stays but will be recomputed past.
    pub(crate) fn evict(&self, phase: PhaseId, fp: Fingerprint) {
        self.lock().index.remove(&(phase, fp));
    }

    /// Appends one artifact record and flushes it; returns whether the
    /// artifact is durable — written now, or already in the log (same
    /// fingerprint ⇒ same bytes, so a key is never written twice).
    ///
    /// Best-effort: a write failure degrades the store to in-memory
    /// operation (see the type docs) instead of surfacing an error —
    /// persistence problems must never fail an analysis job.
    pub(crate) fn append(&self, phase: PhaseId, fp: Fingerprint, artifact: &[u8]) -> bool {
        let mut inner = self.lock();
        if inner.index.contains_key(&(phase, fp)) {
            return true;
        }
        if inner.degraded {
            return false;
        }
        let mut record = vec![0; RECORD_HEADER_LEN];
        record.reserve(PAYLOAD_KEY_LEN + artifact.len());
        record.push(phase.index() as u8);
        record.extend_from_slice(&fp.to_bytes());
        record.extend_from_slice(artifact);
        let payload = &record[RECORD_HEADER_LEN..];
        let len = u32::try_from(payload.len()).expect("an artifact record fits the u32 framing");
        let crc = crc32(payload);
        record[..4].copy_from_slice(&len.to_le_bytes());
        record[4..RECORD_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        let wrote = inner.sink.write_all(&record).and_then(|()| inner.sink.flush());
        match wrote {
            Ok(()) => {
                let at = inner.end;
                inner.end += record.len() as u64;
                inner.index.insert((phase, fp), (at, len));
                true
            }
            Err(e) => {
                // A partial record may now sit at the log's tail; the
                // CRC scan on the next open truncates it away.
                inner.degraded = true;
                inner.pending_warning = Some(format!(
                    "artifact store {}: write failed ({e}); persistence disabled, \
                     continuing in-memory",
                    self.path.display()
                ));
                false
            }
        }
    }

    /// Whether a write failure has switched the store to in-memory-only
    /// operation.
    #[cfg(test)]
    pub(crate) fn is_degraded(&self) -> bool {
        self.lock().degraded
    }

    /// The degradation warning, delivered at most once (so callers can
    /// surface it without spamming one line per lost artifact).
    pub(crate) fn take_warning(&self) -> Option<String> {
        self.lock().pending_warning.take()
    }

    /// Flushes the log sink (a no-op after degradation). Appends flush
    /// record-by-record already; this is the explicit drain-time sync
    /// for the daemon's shutdown path.
    pub(crate) fn flush(&self) {
        let mut inner = self.lock();
        if !inner.degraded {
            let _ = inner.sink.flush();
        }
    }

    /// Swaps the append sink — test hook for fault injection.
    #[cfg(test)]
    pub(crate) fn set_sink_for_tests(&self, sink: Box<dyn LogSink>) {
        self.lock().sink = sink;
    }
}

/// Reads the next record of the open-time scan into `record`, with at
/// most `remaining` bytes left in the log. Returns its key and payload
/// length — or `None` if the record is truncated, CRC-corrupt, or names
/// a phase with no stored type (no claim could ever read it back).
fn scan_record(
    reader: &mut impl Read,
    remaining: u64,
    record: &mut Vec<u8>,
) -> io::Result<Option<((PhaseId, Fingerprint), u32)>> {
    if remaining < RECORD_HEADER_LEN as u64 {
        return Ok(None);
    }
    record.resize(RECORD_HEADER_LEN, 0);
    reader.read_exact(record)?;
    let len = u32::from_le_bytes(record[..4].try_into().expect("4 bytes"));
    // Bounded by the file's length before allocating for it.
    if u64::from(len) > remaining - RECORD_HEADER_LEN as u64 {
        return Ok(None);
    }
    record.resize(RECORD_HEADER_LEN + len as usize, 0);
    reader.read_exact(&mut record[RECORD_HEADER_LEN..])?;
    Ok(parse_record(record).map(|key| (key, len)))
}

/// The key of one framed record, if `record` is exactly one whole
/// record whose CRC holds and whose phase has a stored type.
fn parse_record(record: &[u8]) -> Option<(PhaseId, Fingerprint)> {
    let (head, payload) = record.split_at_checked(RECORD_HEADER_LEN)?;
    let len = u32::from_le_bytes(head[..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(head[4..8].try_into().ok()?);
    if len != payload.len() || len < PAYLOAD_KEY_LEN || crc32(payload) != crc {
        return None;
    }
    let phase = PhaseId::from_index(payload[0] as usize).filter(|p| STORED.contains(p))?;
    let fp = Fingerprint::from_bytes(payload[1..PAYLOAD_KEY_LEN].try_into().ok()?);
    Some((phase, fp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        let mut f = Fp::new("disk-test");
        f.u64(n);
        f.finish()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stamp-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_survive_reopen() {
        let dir = tmp_dir("reopen");
        {
            let (store, warnings) = DiskStore::open(&dir).unwrap();
            assert!(warnings.is_empty());
            assert!(store.append(PhaseId::Cfg, fp(1), b"cfg-bytes"));
            assert!(store.append(PhaseId::Value, fp(2), b"value-bytes"));
            assert_eq!(store.len(), 2);
        }
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(store.len(), 2);
        assert!(store.read(PhaseId::Cfg, fp(2)).is_none());
        // Reads do not consume: every read returns the record's bytes.
        for _ in 0..2 {
            assert_eq!(store.read(PhaseId::Cfg, fp(1)).unwrap(), b"cfg-bytes");
            assert_eq!(store.read(PhaseId::Value, fp(2)).unwrap(), b"value-bytes");
        }
        assert_eq!(store.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_appends_are_idempotent() {
        let dir = tmp_dir("dedup");
        let (store, _) = DiskStore::open(&dir).unwrap();
        assert!(store.append(PhaseId::Cfg, fp(1), b"once"));
        let size_after_first = fs::metadata(store.path()).unwrap().len();
        assert!(store.append(PhaseId::Cfg, fp(1), b"once"), "an indexed key is durable");
        assert_eq!(fs::metadata(store.path()).unwrap().len(), size_after_first);
        assert_eq!(store.len(), 1);
        // An appended record reads back in the same process.
        assert_eq!(store.read(PhaseId::Cfg, fp(1)).unwrap(), b"once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_cut_or_rewritten_after_open_evicts_on_read() {
        let dir = tmp_dir("cut-after-open");
        let (store, _) = DiskStore::open(&dir).unwrap();
        store.append(PhaseId::Cfg, fp(1), b"first");
        store.append(PhaseId::Value, fp(2), b"second");
        store.append(PhaseId::Cache, fp(3), b"third");
        let path = store.path().to_path_buf();
        let len = fs::metadata(&path).unwrap().len();

        // Rewrite one payload byte of the last record: its CRC fails.
        let mut bytes = fs::read(&path).unwrap();
        bytes[len as usize - 1] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.read(PhaseId::Cache, fp(3)).is_none());
        // Cut the log into the middle record: a short read.
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 40).unwrap();
        assert!(store.read(PhaseId::Value, fp(2)).is_none());
        assert_eq!(store.len(), 1, "both failed keys are evicted");
        assert_eq!(store.read(PhaseId::Cfg, fp(1)).unwrap(), b"first");

        // An evicted key is appended anew and reads back.
        assert!(store.append(PhaseId::Value, fp(2), b"second"));
        assert_eq!(store.read(PhaseId::Value, fp(2)).unwrap(), b"second");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_with_a_warning() {
        let dir = tmp_dir("truncate");
        let path = {
            let (store, _) = DiskStore::open(&dir).unwrap();
            store.append(PhaseId::Cfg, fp(1), b"kept");
            store.append(PhaseId::Value, fp(2), b"will-be-cut");
            store.path().to_path_buf()
        };
        // Simulate a crash mid-append: cut the last record short.
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("truncated"), "{warnings:?}");
        assert!(store.read(PhaseId::Cfg, fp(1)).is_some(), "valid prefix survives");
        assert!(store.read(PhaseId::Value, fp(2)).is_none(), "cut record dropped");
        // The log was repaired: reopening is clean and appendable again.
        drop(store);
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        store.append(PhaseId::Value, fp(2), b"recomputed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_fails_crc_and_truncates() {
        let dir = tmp_dir("bitflip");
        let path = {
            let (store, _) = DiskStore::open(&dir).unwrap();
            store.append(PhaseId::Cfg, fp(1), b"first");
            store.append(PhaseId::Value, fp(2), b"second");
            store.path().to_path_buf()
        };
        // Flip one bit inside the second record's payload.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(store.read(PhaseId::Cfg, fp(1)).is_some());
        assert!(store.read(PhaseId::Value, fp(2)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_of_an_unstored_phase_truncates() {
        let dir = tmp_dir("unstored");
        let path = {
            let (store, _) = DiskStore::open(&dir).unwrap();
            store.append(PhaseId::Cfg, fp(1), b"kept");
            // CRC-valid, but no claim could ever read a loop-bound record.
            store.append(PhaseId::LoopBound, fp(2), b"unclaimable");
            store.append(PhaseId::Value, fp(3), b"after");
            store.path().to_path_buf()
        };
        let kept_end = HEADER_LEN + (RECORD_HEADER_LEN + PAYLOAD_KEY_LEN + 4) as u64;
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains(&format!("record at byte {kept_end}")), "{warnings:?}");
        assert_eq!(store.len(), 1, "the log ends before the unstored record");
        assert_eq!(store.read(PhaseId::Cfg, fp(1)).unwrap(), b"kept");
        assert!(store.read(PhaseId::Value, fp(3)).is_none());
        assert_eq!(fs::metadata(&path).unwrap().len(), kept_end, "truncated in place");
        drop(store);
        let (_, warnings) = DiskStore::open(&dir).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alien_header_starts_fresh() {
        let dir = tmp_dir("alien");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LOG_NAME), b"not an artifact log at all").unwrap();
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("incompatible header"), "{warnings:?}");
        assert_eq!(store.len(), 0);
        store.append(PhaseId::Cfg, fp(1), b"fresh");
        drop(store);
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A sink whose every write fails — ENOSPC, a yanked volume, lost
    /// permissions; the cause does not matter to the degradation path.
    struct FailingSink;

    impl Write for FailingSink {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("no space left on device"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_failure_degrades_to_memory_with_one_warning() {
        let dir = tmp_dir("degrade");
        let (store, _) = DiskStore::open(&dir).unwrap();
        store.append(PhaseId::Cfg, fp(1), b"persisted");
        assert_eq!(store.len(), 1);
        assert!(!store.is_degraded());

        store.set_sink_for_tests(Box::new(FailingSink));
        assert!(!store.append(PhaseId::Value, fp(2), b"lost"), "a failed write is not durable");
        assert!(store.is_degraded());
        let warning = store.take_warning().expect("first failure queues a warning");
        assert!(warning.contains("persistence disabled"), "{warning}");
        assert!(store.take_warning().is_none(), "the warning is delivered once");

        // The pre-failure record stays indexed and readable, the lost
        // one is simply absent: the `ArtifactStore` keeps it in its slot
        // (see `disk_write_failure_degrades_without_failing_jobs`).
        assert_eq!(store.len(), 1);
        assert_eq!(store.read(PhaseId::Cfg, fp(1)).unwrap(), b"persisted");
        assert!(store.read(PhaseId::Value, fp(2)).is_none());
        assert!(store.append(PhaseId::Cfg, fp(1), b"persisted"), "still durable");

        // Further appends are skipped silently — no error, no second
        // warning, no growth.
        assert!(!store.append(PhaseId::Summary, fp(3), b"also-lost"));
        assert!(store.take_warning().is_none());
        assert_eq!(store.len(), 1);
        store.flush(); // drain-time flush is a no-op when degraded

        // The on-disk prefix written before the fault stays valid for
        // the next process.
        drop(store);
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn artifact_codecs_round_trip_through_the_log() {
        // End-to-end over a real artifact: assemble a program, persist
        // it through the log, decode it back.
        use stamp_codec::{decode_value, encode_value};
        let program = stamp_isa::asm::assemble(".text\nmain: li r1, 7\nhalt\n").unwrap();
        let bytes = encode_value(&program);
        let dir = tmp_dir("e2e");
        {
            let (store, _) = DiskStore::open(&dir).unwrap();
            store.append(PhaseId::Assemble, fp(1), &bytes);
        }
        let (store, _) = DiskStore::open(&dir).unwrap();
        let loaded = store.read(PhaseId::Assemble, fp(1)).unwrap();
        let back = decode_value::<stamp_isa::Program>(&loaded).unwrap();
        assert_eq!(back.entry, program.entry);
        assert_eq!(encode_value(&back), bytes);
        // The same bytes read as another phase's type must fail
        // decoding, not panic.
        assert!(decode_value::<stamp_cfg::Cfg>(&loaded).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
