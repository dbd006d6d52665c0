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
use std::fs::{self, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
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
const RECORD_HEADER_LEN: u64 = 4 + 4;
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

struct Inner {
    sink: Box<dyn LogSink>,
    /// Every key in the log. A record loaded at open keeps its bytes
    /// until its first claim takes them to decode; after that, and for
    /// every record this process appended, the artifact lives in the
    /// [`crate::ArtifactStore`]'s slot and only the key stays here.
    index: HashMap<(PhaseId, Fingerprint), Option<Vec<u8>>>,
    /// Set on the first write failure: persistence is off for the rest
    /// of this process, reads keep serving from the in-memory index.
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
/// to surface ([`DiskStore::take_warning`]), and every artifact already
/// computed or loaded keeps being served from the
/// [`crate::ArtifactStore`]'s in-memory slots. Analysis results are
/// never affected; only durability of new artifacts is lost.
pub(crate) struct DiskStore {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl DiskStore {
    /// Opens (or creates) the artifact log in `dir`, loading every
    /// valid record into the in-memory index. Recoverable problems —
    /// version/schema mismatch, CRC failure, truncated tail — are
    /// reported as warnings and resolved by truncating the log back to
    /// its valid prefix; only genuine I/O errors fail the open.
    pub(crate) fn open(dir: &Path) -> io::Result<(DiskStore, Vec<String>)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(LOG_NAME);
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut warnings = Vec::new();

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let header_ok = bytes.len() >= HEADER_LEN as usize
            && &bytes[..8] == MAGIC
            && bytes[8..12] == FORMAT_VERSION.to_le_bytes()
            && bytes[12..28] == schema_fingerprint().to_bytes();
        if !bytes.is_empty() && !header_ok {
            warnings.push(format!(
                "artifact store {}: incompatible header; starting fresh",
                path.display()
            ));
        }
        if !header_ok {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            file.write_all(&schema_fingerprint().to_bytes())?;
            file.flush()?;
            let inner = Inner {
                sink: Box::new(file),
                index: HashMap::new(),
                degraded: false,
                pending_warning: None,
            };
            return Ok((DiskStore { path, inner: Mutex::new(inner) }, warnings));
        }

        // Scan records; stop (and truncate) at the first invalid one.
        let mut index = HashMap::new();
        let mut off = HEADER_LEN as usize;
        let valid_end = loop {
            if off == bytes.len() {
                break off; // clean end of log
            }
            let Some(rec) = parse_record(&bytes[off..]) else {
                warnings.push(format!(
                    "artifact store {}: corrupt or truncated record at byte {off}; \
                     dropping the log tail ({} artifacts kept)",
                    path.display(),
                    index.len()
                ));
                break off;
            };
            let (key, payload, consumed) = rec;
            index.insert(key, Some(payload.to_vec()));
            off += consumed;
        };
        if valid_end < bytes.len() {
            file.set_len(valid_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        let inner = Inner { sink: Box::new(file), index, degraded: false, pending_warning: None };
        Ok((DiskStore { path, inner: Mutex::new(inner) }, warnings))
    }

    /// The log file's path (for warnings and reports).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Number of artifacts currently held on disk.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// Takes the bytes a key's record was loaded with at open, if it has
    /// not been taken yet. The key stays, so the record is not appended
    /// again.
    pub(crate) fn take(&self, phase: PhaseId, fp: Fingerprint) -> Option<Vec<u8>> {
        self.inner.lock().unwrap().index.get_mut(&(phase, fp))?.take()
    }

    /// Drops a key from the in-memory index (after a decode failure);
    /// the on-disk record stays but will be recomputed past.
    pub(crate) fn evict(&self, phase: PhaseId, fp: Fingerprint) {
        self.inner.lock().unwrap().index.remove(&(phase, fp));
    }

    /// Appends one artifact record and flushes it. A key already
    /// present is not rewritten (same fingerprint ⇒ same bytes).
    ///
    /// Best-effort: a write failure degrades the store to in-memory
    /// operation (see the type docs) instead of surfacing an error —
    /// persistence problems must never fail an analysis job.
    pub(crate) fn append(&self, phase: PhaseId, fp: Fingerprint, artifact: &[u8]) {
        let mut inner = self.inner.lock().unwrap();
        if inner.degraded || inner.index.contains_key(&(phase, fp)) {
            return;
        }
        let mut payload = Vec::with_capacity(PAYLOAD_KEY_LEN + artifact.len());
        payload.push(phase.index() as u8);
        payload.extend_from_slice(&fp.to_bytes());
        payload.extend_from_slice(artifact);
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let wrote = inner.sink.write_all(&record).and_then(|()| inner.sink.flush());
        match wrote {
            Ok(()) => {
                inner.index.insert((phase, fp), None);
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
            }
        }
    }

    /// Whether a write failure has switched the store to in-memory-only
    /// operation.
    #[cfg(test)]
    pub(crate) fn is_degraded(&self) -> bool {
        self.inner.lock().unwrap().degraded
    }

    /// The degradation warning, delivered at most once (so callers can
    /// surface it without spamming one line per lost artifact).
    pub(crate) fn take_warning(&self) -> Option<String> {
        self.inner.lock().unwrap().pending_warning.take()
    }

    /// Flushes the log sink (a no-op after degradation). Appends flush
    /// record-by-record already; this is the explicit drain-time sync
    /// for the daemon's shutdown path.
    pub(crate) fn flush(&self) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.degraded {
            let _ = inner.sink.flush();
        }
    }

    /// Swaps the append sink — test hook for fault injection.
    #[cfg(test)]
    pub(crate) fn set_sink_for_tests(&self, sink: Box<dyn LogSink>) {
        self.inner.lock().unwrap().sink = sink;
    }
}

/// Parses one record at the start of `bytes`. Returns the key, the
/// artifact payload and the total bytes consumed — or `None` if the
/// record is truncated, CRC-corrupt, or names a phase with no stored
/// type (no claim could ever take its bytes).
#[allow(clippy::type_complexity)]
fn parse_record(bytes: &[u8]) -> Option<((PhaseId, Fingerprint), &[u8], usize)> {
    let head = RECORD_HEADER_LEN as usize;
    if bytes.len() < head {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if len < PAYLOAD_KEY_LEN || bytes.len() - head < len {
        return None;
    }
    let payload = &bytes[head..head + len];
    if crc32(payload) != crc {
        return None;
    }
    let phase = PhaseId::from_index(payload[0] as usize).filter(|p| STORED.contains(p))?;
    let fp = Fingerprint::from_bytes(payload[1..17].try_into().ok()?);
    Some(((phase, fp), &payload[PAYLOAD_KEY_LEN..], head + len))
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
            store.append(PhaseId::Cfg, fp(1), b"cfg-bytes");
            store.append(PhaseId::Value, fp(2), b"value-bytes");
            assert_eq!(store.len(), 2);
        }
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(store.len(), 2);
        assert_eq!(store.take(PhaseId::Cfg, fp(1)).unwrap(), b"cfg-bytes");
        assert_eq!(store.take(PhaseId::Value, fp(2)).unwrap(), b"value-bytes");
        assert!(store.take(PhaseId::Cfg, fp(2)).is_none());
        // The first take hands the bytes over; the key stays indexed.
        assert!(store.take(PhaseId::Cfg, fp(1)).is_none());
        assert_eq!(store.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_appends_are_idempotent() {
        let dir = tmp_dir("dedup");
        let (store, _) = DiskStore::open(&dir).unwrap();
        store.append(PhaseId::Cfg, fp(1), b"once");
        let size_after_first = fs::metadata(store.path()).unwrap().len();
        store.append(PhaseId::Cfg, fp(1), b"once");
        assert_eq!(fs::metadata(store.path()).unwrap().len(), size_after_first);
        // An appended record keeps only its key in memory, not its bytes.
        assert_eq!(store.len(), 1);
        assert!(store.take(PhaseId::Cfg, fp(1)).is_none());
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
        assert!(store.take(PhaseId::Cfg, fp(1)).is_some(), "valid prefix survives");
        assert!(store.take(PhaseId::Value, fp(2)).is_none(), "cut record dropped");
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
        assert!(store.take(PhaseId::Cfg, fp(1)).is_some());
        assert!(store.take(PhaseId::Value, fp(2)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_of_an_unstored_phase_truncates() {
        let dir = tmp_dir("unstored");
        let path = {
            let (store, _) = DiskStore::open(&dir).unwrap();
            store.append(PhaseId::Cfg, fp(1), b"kept");
            // CRC-valid, but no claim could ever take a loop-bound record.
            store.append(PhaseId::LoopBound, fp(2), b"unclaimable");
            store.append(PhaseId::Value, fp(3), b"after");
            store.path().to_path_buf()
        };
        let kept_end = HEADER_LEN + RECORD_HEADER_LEN + (PAYLOAD_KEY_LEN + 4) as u64;
        let (store, warnings) = DiskStore::open(&dir).unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains(&format!("record at byte {kept_end}")), "{warnings:?}");
        assert_eq!(store.len(), 1, "the log ends before the unstored record");
        assert_eq!(store.take(PhaseId::Cfg, fp(1)).unwrap(), b"kept");
        assert!(store.take(PhaseId::Value, fp(3)).is_none());
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
        store.append(PhaseId::Value, fp(2), b"lost");
        assert!(store.is_degraded());
        let warning = store.take_warning().expect("first failure queues a warning");
        assert!(warning.contains("persistence disabled"), "{warning}");
        assert!(store.take_warning().is_none(), "the warning is delivered once");

        // The pre-failure key stays indexed, the lost one is simply
        // absent. Serving the pre-failure artifact is the job of the
        // `ArtifactStore` slot that holds it decoded (see
        // `disk_write_failure_degrades_without_failing_jobs`).
        assert_eq!(store.len(), 1);
        assert!(store.take(PhaseId::Value, fp(2)).is_none());

        // Further appends are skipped silently — no error, no second
        // warning, no growth.
        store.append(PhaseId::Summary, fp(3), b"also-lost");
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
        let loaded = store.take(PhaseId::Assemble, fp(1)).unwrap();
        let back = decode_value::<stamp_isa::Program>(&loaded).unwrap();
        assert_eq!(back.entry, program.entry);
        assert_eq!(encode_value(&back), bytes);
        // The same bytes read as another phase's type must fail
        // decoding, not panic.
        assert!(decode_value::<stamp_cfg::Cfg>(&loaded).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
