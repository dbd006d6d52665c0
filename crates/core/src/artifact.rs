//! The content-addressed artifact store: cross-job reuse of phase
//! results.
//!
//! A batch campaign runs `targets × variants` jobs, and most variants
//! agree on most phase inputs — the whole hardware sweep shares one CFG
//! and one value fixpoint per target (see `phase.rs`). The
//! [`ArtifactStore`] exploits that: artifacts are keyed by
//! `(phase, input fingerprint)`, the **first claimant computes** and
//! every other job that claims the key while its slot is in the map
//! **waits on the slot** and receives the shared artifact
//! (`stamp_exec::Slot` provides the claim/wait state machine, including
//! panic-safe claim hand-off).
//!
//! # Retention
//!
//! Without a durable backend every slot stays in the map for the
//! store's life. With one, the log is the store's memory: once an
//! artifact is durable (written through, or filled from a log record)
//! its slot leaves the map, and a later claimant reads the record back
//! and decodes it. Only what the log cannot answer stays resident:
//! errors (never persisted), claims still in flight, artifacts whose
//! write failed (a degraded log), and the types the registry marks
//! `[RESIDENT]`.
//!
//! # Soundness
//!
//! Reuse is sound because every phase is a pure function of its
//! fingerprinted inputs and fingerprints chain through upstream phases
//! (`phase.rs` documents per-phase coverage). Phase *errors* are
//! artifacts too: a cached [`AnalysisError`] replays identically to a
//! computed one, so failed jobs render byte-identically with and
//! without the store.
//!
//! # Determinism
//!
//! Whether a given job computed or reused an artifact depends on
//! scheduling, so provenance and hit statistics are reported strictly
//! in the *timing layer* of batch reports (`BatchReport::to_json`),
//! never in the deterministic `results_json` — a cached run is
//! byte-identical to a cold one, which `tests/artifact_reuse.rs` and
//! the CI `batch-smoke` job enforce.

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use stamp_codec::{decode_value, encode_value, Codec};
use stamp_exec::{Slot, SlotClaim, SlotFillGuard};

use crate::error::AnalysisError;
use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::phase::PhaseId;
use crate::store_disk::DiskStore;

/// A type the store keeps: the phase it names keys its slots and its
/// disk records, and its codec is the records' bytes.
pub(crate) trait Artifact: Codec + Send + Sync + 'static {
    /// The phase that produces this type.
    const PHASE: PhaseId;
    /// Whether a durable artifact of this type keeps its slot (see the
    /// module docs on retention).
    const RESIDENT: bool = false;
}

/// The registry: one stored type per stored phase, tagged `[RESIDENT]`
/// if its slots outlive the log write. Loop bounds, pipeline times and
/// the path ILP are phases without a type here: they are recomputed on
/// every run (see `phase.rs`).
macro_rules! artifacts {
    ($($phase:ident => $ty:ty $([$resident:ident])?,)*) => {
        $(impl Artifact for $ty {
            const PHASE: PhaseId = PhaseId::$phase;
            $(const $resident: bool = true;)?
        })*
        /// Every stored phase, in registry order: the vocabulary of the
        /// durable log.
        pub(crate) const STORED: &[PhaseId] = &[$(<$ty as Artifact>::PHASE),*];
    };
}

artifacts! {
    Assemble => stamp_isa::Program,
    Cfg => stamp_cfg::Cfg,
    Context => stamp_ai::Icfg,
    Value => stamp_value::ValueAnalysis,
    Cache => stamp_cache::CacheAnalysis,
    // Summaries are keyed by content and reused across program
    // versions: a seed-1 `serve-edits` run made 107,643 summary hits
    // against 2,889 misses, and keeping them all costs about 0.9 MB,
    // so decoding each hit from the log would buy nothing.
    Summary => stamp_path::SegmentSummary [RESIDENT],
}

/// What a slot stores: the phase's artifact (type-erased; its phase
/// names its type) or the error the phase produced.
type Stored = Result<Arc<dyn Any + Send + Sync>, AnalysisError>;

/// The slot map: one claim/wait slot per `(phase, fingerprint)` key.
type SlotMap = HashMap<(PhaseId, Fingerprint), Arc<Slot<Stored>>>;

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
}

/// A thread-safe, content-addressed store of phase artifacts, shared by
/// every job of a batch run (see the module docs). With
/// [`ArtifactStore::with_disk`] the store is additionally backed by a
/// durable on-disk artifact log (`store_disk.rs`): misses consult the
/// log before computing, and freshly computed artifacts are written
/// through, so a later *process* re-running the same inputs starts warm.
pub struct ArtifactStore {
    enabled: bool,
    slots: Mutex<SlotMap>,
    counters: [Counters; PhaseId::ALL.len()],
    disk: Option<DiskStore>,
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::new()
    }
}

/// The outcome of claiming an artifact slot (crate-internal; phase
/// drivers use it, public callers see only reports and stats).
pub(crate) enum ArtifactClaim<'s, T> {
    /// The store is disabled: compute locally, publish nothing.
    Disabled,
    /// Another job already produced this artifact (or its error) — or
    /// a durable backend held it from an earlier process.
    Ready(Result<Arc<T>, AnalysisError>),
    /// This job is the first claimant and must compute and publish.
    Fill(FillGuard<'s, T>),
}

/// Exclusive permission to publish one artifact. Dropping it without
/// fulfilling (panic inside the computing phase) releases the claim to
/// a waiting job.
pub(crate) struct FillGuard<'s, T> {
    inner: SlotFillGuard<Stored>,
    store: &'s ArtifactStore,
    /// The slot being filled, to retire once the artifact is durable.
    slot: Arc<Slot<Stored>>,
    fp: Fingerprint,
    artifact: PhantomData<T>,
}

impl<T: Artifact> FillGuard<'_, T> {
    /// Publishes the computed artifact (or the phase error) and wakes
    /// every waiting job. Successful artifacts are written through to
    /// the durable log, if any, and then leave the slot map; errors are
    /// never persisted (see `store_disk.rs`). A failed disk write
    /// degrades to in-memory-only operation — persistence is an
    /// optimization, never a failure.
    pub(crate) fn fulfill(self, value: Result<Arc<T>, AnalysisError>) {
        let durable = match (&self.store.disk, &value) {
            (Some(disk), Ok(artifact)) => {
                disk.append(T::PHASE, self.fp, &encode_value(&**artifact))
            }
            _ => false,
        };
        self.inner.fulfill(value.map(|v| v as Arc<dyn Any + Send + Sync>));
        if durable {
            self.store.retire::<T>(self.fp, &self.slot);
        }
    }
}

impl ArtifactStore {
    /// An enabled, empty store.
    pub fn new() -> ArtifactStore {
        ArtifactStore {
            enabled: true,
            slots: Mutex::new(HashMap::new()),
            counters: Default::default(),
            disk: None,
        }
    }

    /// An enabled store backed by the durable artifact log in `dir`
    /// (created if absent). Artifacts persisted by earlier processes
    /// answer misses without recomputation (counted as
    /// [`PhaseStat::hits_disk`]); newly computed artifacts are written
    /// through. The returned warnings describe recovered corruption —
    /// a corrupt or truncated log is repaired by truncation and never
    /// fails the open.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, disk full on header
    /// write) — see [`crate::ArtifactStore::with_disk`] callers for the
    /// CLI mapping to exit code 2.
    pub fn with_disk(dir: &Path) -> io::Result<(ArtifactStore, Vec<String>)> {
        let (disk, warnings) = DiskStore::open(dir)?;
        let mut store = ArtifactStore::new();
        store.disk = Some(disk);
        Ok((store, warnings))
    }

    /// Number of artifacts held by the durable backend (0 without one).
    pub fn disk_artifact_count(&self) -> usize {
        self.disk.as_ref().map(DiskStore::len).unwrap_or(0)
    }

    /// The durable log path, if this store has a disk backend.
    pub fn disk_path(&self) -> Option<&Path> {
        self.disk.as_ref().map(DiskStore::path)
    }

    /// The degradation warning, if a disk write has failed since the
    /// last call — delivered at most once, so callers (CLI, daemon) can
    /// print exactly one line instead of one per lost artifact.
    pub fn take_disk_warning(&self) -> Option<String> {
        self.disk.as_ref().and_then(DiskStore::take_warning)
    }

    /// Flushes the durable backend, if any — the daemon's drain-time
    /// sync. Appends are flushed record-by-record already, so this is
    /// cheap.
    pub fn flush_disk(&self) {
        if let Some(disk) = &self.disk {
            disk.flush();
        }
    }

    /// A disabled store: every claim answers that the store is disabled,
    /// and nothing is retained — the zero-overhead path of
    /// `--no-artifact-cache` and of one-shot [`crate::WcetAnalysis::run`].
    pub fn disabled() -> ArtifactStore {
        ArtifactStore { enabled: false, ..ArtifactStore::new() }
    }

    /// Whether artifacts are being cached.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Claims the `T` artifact under `fp` (see [`ArtifactClaim`]).
    ///
    /// With a durable backend, a first claimant consults the on-disk
    /// log before computing: a decodable record is published to the
    /// in-memory slot (so concurrent claimants share it), answered as
    /// [`ArtifactClaim::Ready`] and counted separately as a disk hit,
    /// and the slot is retired again. An unreadable or undecodable
    /// record — the log was cut or rewritten since open, version skew
    /// survived the schema check, or silent corruption passed the CRC —
    /// is evicted and recomputed; never a crash.
    pub(crate) fn claim<T: Artifact>(&self, fp: Fingerprint) -> ArtifactClaim<'_, T> {
        if !self.enabled {
            return ArtifactClaim::Disabled;
        }
        let slot = Arc::clone(self.slots().entry((T::PHASE, fp)).or_default());
        let counters = &self.counters[T::PHASE.index()];
        match Slot::claim(&slot) {
            SlotClaim::Ready { value, waited } => {
                counters.hits.fetch_add(1, Ordering::Relaxed);
                if waited {
                    counters.waits.fetch_add(1, Ordering::Relaxed);
                }
                // The slot is keyed by `T::PHASE`, and each phase has
                // one artifact type, so only a `T` was ever put there.
                ArtifactClaim::Ready(value.map(|any| any.downcast().expect("one type per phase")))
            }
            SlotClaim::Fill(inner) => {
                if let Some(disk) = &self.disk {
                    if let Some(bytes) = disk.read(T::PHASE, fp) {
                        match decode_value::<T>(&bytes) {
                            Ok(artifact) => {
                                counters.hits_disk.fetch_add(1, Ordering::Relaxed);
                                let artifact = Arc::new(artifact);
                                inner.fulfill(Ok(artifact.clone()));
                                self.retire::<T>(fp, &slot);
                                return ArtifactClaim::Ready(Ok(artifact));
                            }
                            Err(_) => disk.evict(T::PHASE, fp),
                        }
                    }
                }
                counters.misses.fetch_add(1, Ordering::Relaxed);
                ArtifactClaim::Fill(FillGuard {
                    inner,
                    store: self,
                    slot,
                    fp,
                    artifact: PhantomData,
                })
            }
        }
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, SlotMap> {
        self.slots.lock().expect("no thread panics while holding the slot map")
    }

    /// Drops a durable artifact's filled slot from the map (unless its
    /// type is resident): jobs holding the slot keep the shared
    /// artifact, later claimants read the log record back. Only that
    /// very slot leaves, never one created for the key since.
    fn retire<T: Artifact>(&self, fp: Fingerprint, slot: &Arc<Slot<Stored>>) {
        if T::RESIDENT {
            return;
        }
        let mut slots = self.slots();
        if slots.get(&(T::PHASE, fp)).is_some_and(|held| Arc::ptr_eq(held, slot)) {
            slots.remove(&(T::PHASE, fp));
        }
    }

    /// The get-or-compute lookup over [`ArtifactStore::claim`] (the phase
    /// runner's, `phase::PhaseRun`): returns the shared artifact — or the
    /// phase error, cached exactly like a value — plus whether it was
    /// reused, on the error path too.
    pub(crate) fn get_or_compute<T: Artifact>(
        &self,
        fp: Fingerprint,
        compute: impl FnOnce() -> Result<T, AnalysisError>,
    ) -> (Result<Arc<T>, AnalysisError>, bool) {
        match self.claim(fp) {
            ArtifactClaim::Disabled => (compute().map(Arc::new), false),
            ArtifactClaim::Ready(stored) => (stored, true),
            ArtifactClaim::Fill(guard) => {
                let computed = compute().map(Arc::new);
                guard.fulfill(computed.clone());
                (computed, false)
            }
        }
    }

    /// A snapshot of the per-phase request counters.
    pub fn stats(&self) -> ArtifactStats {
        ArtifactStats {
            enabled: self.enabled,
            phases: PhaseId::ALL.map(|p| {
                let c = &self.counters[p.index()];
                PhaseStat {
                    phase: p.name(),
                    hits: c.hits.load(Ordering::Relaxed),
                    hits_disk: c.hits_disk.load(Ordering::Relaxed),
                    misses: c.misses.load(Ordering::Relaxed),
                    waits: c.waits.load(Ordering::Relaxed),
                }
            }),
        }
    }
}

/// Request counters of one phase (a row of [`ArtifactStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// The phase's short name.
    pub phase: &'static str,
    /// Requests answered from the in-memory store (including after a
    /// wait).
    pub hits: u64,
    /// Requests answered by decoding a record of the durable on-disk
    /// log — written by an earlier process, or by this one (a durable
    /// artifact leaves the in-memory store, see the module docs).
    pub hits_disk: u64,
    /// Requests that computed the artifact.
    pub misses: u64,
    /// Hits that blocked on an in-flight computation.
    pub waits: u64,
}

/// Per-phase artifact-cache statistics, either cumulative
/// ([`ArtifactStore::stats`]) or as a delta over one batch pass
/// ([`ArtifactStats::since`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArtifactStats {
    /// Whether the store was enabled (disabled stores count nothing).
    pub enabled: bool,
    /// One row per phase, in pipeline order.
    pub phases: [PhaseStat; PhaseId::ALL.len()],
}

impl ArtifactStats {
    /// Total requests answered from the in-memory store.
    pub fn hits(&self) -> u64 {
        self.phases.iter().map(|p| p.hits).sum()
    }

    /// Total requests answered from the durable on-disk log.
    pub fn hits_disk(&self) -> u64 {
        self.phases.iter().map(|p| p.hits_disk).sum()
    }

    /// Total requests that computed.
    pub fn misses(&self) -> u64 {
        self.phases.iter().map(|p| p.misses).sum()
    }

    /// Total artifact requests.
    pub fn requests(&self) -> u64 {
        self.hits() + self.hits_disk() + self.misses()
    }

    /// Fraction of requests answered without computing — from memory
    /// or from disk (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            (self.hits() + self.hits_disk()) as f64 / total as f64
        }
    }

    /// Of the requests that *reached the durable backend* (i.e. missed
    /// memory), the fraction answered from disk. This is the
    /// warm-process metric the CI `batch-smoke` job gates on: a second
    /// process over unchanged inputs answers every claim that misses
    /// memory from disk, so its disk hit rate is 1.0.
    pub fn disk_hit_rate(&self) -> f64 {
        let reached = self.hits_disk() + self.misses();
        if reached == 0 {
            0.0
        } else {
            self.hits_disk() as f64 / reached as f64
        }
    }

    /// The row for the named phase, or `None` for a name that is not a
    /// phase. (Returning a defaulted row here once masked typos in
    /// callers — an unknown phase looked identical to an idle one.)
    pub fn phase(&self, name: &str) -> Option<PhaseStat> {
        self.phases.iter().copied().find(|p| p.phase == name)
    }

    /// The delta from an `earlier` snapshot of the same store — the
    /// per-pass statistics of a batch run against a long-lived store.
    pub fn since(&self, earlier: &ArtifactStats) -> ArtifactStats {
        let mut delta = *self;
        for (row, before) in delta.phases.iter_mut().zip(earlier.phases.iter()) {
            // Saturating: counters only grow, but guard against callers
            // swapping the arguments or mixing snapshots of different
            // stores — a zero row beats a wrapped 2^64 count in a report.
            row.hits = row.hits.saturating_sub(before.hits);
            row.hits_disk = row.hits_disk.saturating_sub(before.hits_disk);
            row.misses = row.misses.saturating_sub(before.misses);
            row.waits = row.waits.saturating_sub(before.waits);
        }
        delta
    }

    /// JSON rendering (part of the *timing layer* of batch reports —
    /// hit patterns depend on scheduling and never enter the
    /// deterministic `results_json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("enabled", Json::Bool(self.enabled)),
            ("hits", Json::int(self.hits())),
            ("hits_disk", Json::int(self.hits_disk())),
            ("misses", Json::int(self.misses())),
            ("hit_rate", Json::Num(self.hit_rate())),
            ("disk_hit_rate", Json::Num(self.disk_hit_rate())),
            (
                "phases",
                Json::Obj(
                    self.phases
                        .iter()
                        .filter(|p| p.hits + p.hits_disk + p.misses > 0)
                        .map(|p| {
                            (
                                p.phase.to_string(),
                                Json::obj([
                                    ("hits", Json::int(p.hits)),
                                    ("hits_disk", Json::int(p.hits_disk)),
                                    ("misses", Json::int(p.misses)),
                                    ("waits", Json::int(p.waits)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fp;

    fn fp(n: u64) -> Fingerprint {
        let mut f = Fp::new("test");
        f.u64(n);
        f.finish()
    }

    /// A stand-in artifact of the phase at index `P`, for tests of the
    /// store itself.
    #[derive(Debug, PartialEq)]
    struct Probe<const P: usize>(u32);

    impl<const P: usize> Codec for Probe<P> {
        fn enc(&self, e: &mut stamp_codec::Enc) {
            e.u32(self.0);
        }
        fn dec(d: &mut stamp_codec::Dec) -> Result<Self, stamp_codec::CodecError> {
            Ok(Probe(d.u32()?))
        }
    }

    impl<const P: usize> Artifact for Probe<P> {
        const PHASE: PhaseId = PhaseId::ALL[P];
    }

    const CFG: usize = PhaseId::Cfg as usize;
    const VALUE: usize = PhaseId::Value as usize;
    const CACHE: usize = PhaseId::Cache as usize;

    /// [`ArtifactStore::get_or_compute`] as `Result<(artifact, reused)>`,
    /// for terse assertions.
    fn get<T: Artifact>(
        store: &ArtifactStore,
        fp: Fingerprint,
        compute: impl FnOnce() -> Result<T, AnalysisError>,
    ) -> Result<(Arc<T>, bool), AnalysisError> {
        let (artifact, reused) = store.get_or_compute(fp, compute);
        artifact.map(|a| (a, reused))
    }

    #[test]
    fn each_phase_stores_exactly_one_type() {
        use PhaseId::*;
        assert_eq!(STORED, [Assemble, Cfg, Context, Value, Cache, Summary]);
    }

    #[test]
    fn first_request_computes_second_reuses() {
        let store = ArtifactStore::new();
        let (a, reused) = get(&store, fp(1), || Ok(Probe::<CFG>(7))).unwrap();
        assert!(!reused);
        let (b, reused) =
            get(&store, fp(1), || -> Result<Probe<CFG>, _> { panic!("must not recompute") })
                .unwrap();
        assert!(reused);
        assert!(Arc::ptr_eq(&a, &b), "the artifact is shared, not copied");
        let stats = store.stats();
        assert_eq!(
            stats.phase("cfg").unwrap(),
            PhaseStat { phase: "cfg", hits: 1, hits_disk: 0, misses: 1, waits: 0 }
        );
        assert_eq!(stats.phase("no-such-phase"), None);
        assert_eq!(stats.requests(), 2);
    }

    #[test]
    fn distinct_fingerprints_and_phases_do_not_collide() {
        let store = ArtifactStore::new();
        let (a, _) = get(&store, fp(1), || Ok(Probe::<CFG>(10))).unwrap();
        let (b, _) = get(&store, fp(2), || Ok(Probe::<CFG>(20))).unwrap();
        let (c, _) = get(&store, fp(1), || Ok(Probe::<VALUE>(30))).unwrap();
        assert_eq!((a.0, b.0, c.0), (10, 20, 30));
        assert_eq!(store.stats().misses(), 3);
        assert_eq!(store.stats().hits(), 0);
    }

    #[test]
    fn errors_are_cached_and_replayed() {
        let store = ArtifactStore::new();
        let fail = || -> Result<Probe<CACHE>, AnalysisError> {
            Err(AnalysisError::UnknownSymbol { name: "boom".into() })
        };
        let (e1, reused1) = store.get_or_compute(fp(9), fail);
        // The second request must *not* recompute: the closure panics if
        // called. The reuse flag survives the error path.
        let (e2, reused2) = store
            .get_or_compute(fp(9), || -> Result<Probe<CACHE>, AnalysisError> {
                panic!("errors are artifacts too")
            });
        assert_eq!((reused1, reused2), (false, true));
        assert_eq!(e1.unwrap_err().to_string(), e2.unwrap_err().to_string());
        let s = store.stats().phase("cache").unwrap();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn disabled_store_always_computes_and_counts_nothing() {
        let store = ArtifactStore::disabled();
        for _ in 0..3 {
            let (v, reused) = get(&store, fp(5), || Ok(Probe::<VALUE>(7))).unwrap();
            assert_eq!(v.0, 7);
            assert!(!reused);
        }
        assert_eq!(store.stats().requests(), 0);
        assert!(store.slots().is_empty(), "nothing is retained");
        assert!(!store.enabled());
    }

    #[test]
    fn concurrent_claims_compute_once_and_wait() {
        let store = ArtifactStore::new();
        let computed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = get(&store, fp(1), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so other threads
                        // actually wait on the slot.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        Ok(Probe::<VALUE>(123))
                    })
                    .unwrap();
                    assert_eq!(v.0, 123);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "exactly one claimant computes");
        let s = store.stats().phase("value").unwrap();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn stats_delta_isolates_a_pass() {
        let store = ArtifactStore::new();
        let _ = get(&store, fp(1), || Ok(Probe::<CFG>(1)));
        let before = store.stats();
        let _ = get(&store, fp(1), || Ok(Probe::<CFG>(1)));
        let delta = store.stats().since(&before);
        assert_eq!(delta.hits(), 1);
        assert_eq!(delta.misses(), 0);
        assert_eq!(delta.hit_rate(), 1.0);
    }

    #[test]
    fn stats_json_lands_active_phases_only() {
        let store = ArtifactStore::new();
        let _ = get(&store, fp(1), || Ok(Probe::<CACHE>(0)));
        let json = store.stats().to_json().to_string();
        assert!(json.contains("\"cache\""), "{json}");
        assert!(!json.contains("\"pipeline\""), "{json}");
        assert!(json.contains("\"hit_rate\""), "{json}");
        assert!(json.contains("\"hits_disk\""), "{json}");
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("stamp-artifact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_store_answers_a_fresh_process_from_the_log() {
        let dir = tmp_dir("warm");
        {
            let (store, warnings) = ArtifactStore::with_disk(&dir).unwrap();
            assert!(warnings.is_empty(), "{warnings:?}");
            let (_, reused) = get(&store, fp(1), || Ok(Probe::<CACHE>(64))).unwrap();
            assert!(!reused);
            assert_eq!(store.disk_artifact_count(), 1, "fulfill writes through");
        }
        // A second store on the same directory models a new process: the
        // in-memory map starts empty, so the artifact must come from disk.
        let (store, warnings) = ArtifactStore::with_disk(&dir).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        let (probe, reused) = get(&store, fp(1), || -> Result<Probe<CACHE>, _> {
            panic!("must be served from disk")
        })
        .unwrap();
        assert!(reused);
        assert_eq!(probe.0, 64);
        let stats = store.stats();
        assert_eq!(stats.hits_disk(), 1);
        assert_eq!(stats.hits(), 0);
        assert_eq!(stats.disk_hit_rate(), 1.0);
        // The artifact left memory with the request: a repeat in the
        // same process decodes the record again.
        let (_, reused) = get(&store, fp(1), || -> Result<Probe<CACHE>, _> {
            panic!("must be served from disk")
        })
        .unwrap();
        assert!(reused);
        assert_eq!((store.stats().hits(), store.stats().hits_disk()), (0, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whether `store` holds a slot for the `T` artifact under `fp`.
    fn holds<T: Artifact>(store: &ArtifactStore, fp: Fingerprint) -> bool {
        store.slots().contains_key(&(T::PHASE, fp))
    }

    #[test]
    fn a_durable_artifact_leaves_the_slot_map() {
        // A memory-only store keeps every slot.
        let memory = ArtifactStore::new();
        get(&memory, fp(1), || Ok(Probe::<CACHE>(1))).unwrap();
        assert!(holds::<Probe<CACHE>>(&memory, fp(1)));

        let dir = tmp_dir("retire");
        let (store, _) = ArtifactStore::with_disk(&dir).unwrap();
        // Written through: the slot leaves, a job holding the artifact
        // keeps it, and the next claim reads the log.
        let (held, _) = get(&store, fp(1), || Ok(Probe::<CACHE>(1))).unwrap();
        assert!(!holds::<Probe<CACHE>>(&store, fp(1)));
        let (again, reused) =
            get(&store, fp(1), || -> Result<Probe<CACHE>, _> { panic!("durable") }).unwrap();
        assert!(reused);
        assert_eq!(*held, *again);
        // Filled from the log: the slot leaves again.
        assert!(!holds::<Probe<CACHE>>(&store, fp(1)));
        // An error is never persisted, so it stays and replays.
        let fail = || -> Result<Probe<CACHE>, AnalysisError> {
            Err(AnalysisError::UnknownSymbol { name: "boom".into() })
        };
        get(&store, fp(2), fail).unwrap_err();
        assert!(holds::<Probe<CACHE>>(&store, fp(2)));
        let (_, reused) = store.get_or_compute(fp(2), || -> Result<Probe<CACHE>, _> {
            panic!("the error replays from memory")
        });
        assert!(reused);
        let s = store.stats().phase("cache").unwrap();
        assert_eq!((s.hits, s.hits_disk, s.misses), (1, 1, 2));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_summaries_stay_resident_and_the_prefix_leaves() {
        // Calls cut the supergraph into segments, so the path phase
        // requests summaries.
        let program =
            stamp_isa::asm::assemble(".text\nmain: call f\ncall f\nhalt\nf: div r1, r2, r3\nret\n")
                .unwrap();
        let dir = tmp_dir("resident");
        let (store, _) = ArtifactStore::with_disk(&dir).unwrap();
        crate::WcetAnalysis::new(&program).run_full(&store).unwrap();
        let held: Vec<PhaseId> = store.slots().keys().map(|(phase, _)| *phase).collect();
        assert!(held.contains(&PhaseId::Summary), "{held:?}");
        assert!(held.iter().all(|p| *p == PhaseId::Summary), "{held:?}");
        // A second run decodes the prefix from the log, and its summary
        // requests are memory hits.
        crate::WcetAnalysis::new(&program).run_full(&store).unwrap();
        let stats = store.stats();
        assert_eq!(stats.phase("value").unwrap().hits_disk, 1);
        let summary = stats.phase("summary").unwrap();
        assert!(summary.hits > 0 && summary.hits_disk == 0, "{summary:?}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_claims_on_a_disk_store_compute_once() {
        let dir = tmp_dir("concurrent");
        let (store, _) = ArtifactStore::with_disk(&dir).unwrap();
        let computed = AtomicU64::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let (v, _) = get(&store, fp(1), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        Ok(Probe::<VALUE>(123))
                    })
                    .unwrap();
                    assert_eq!(v.0, 123);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "exactly one claimant computes");
        let s = store.stats().phase("value").unwrap();
        assert_eq!((s.misses, s.hits + s.hits_disk), (1, 7), "{s:?}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_cut_under_a_running_store_recomputes() {
        let program = stamp_isa::asm::assemble(LOOP_TASK).unwrap();
        let (mut expect, _) =
            crate::WcetAnalysis::new(&program).run_full(&ArtifactStore::disabled()).unwrap();
        expect.phases.clear();
        let dir = tmp_dir("cut");
        let (store, _) = ArtifactStore::with_disk(&dir).unwrap();
        let (mut cold, _) = crate::WcetAnalysis::new(&program).run_full(&store).unwrap();
        // Cut the log back to its header while the store is open.
        let log = store.disk_path().unwrap().to_path_buf();
        std::fs::OpenOptions::new().write(true).open(&log).unwrap().set_len(28).unwrap();
        let (mut warm, _) = crate::WcetAnalysis::new(&program).run_full(&store).unwrap();
        let value = store.stats().phase("value").unwrap();
        assert_eq!((value.hits_disk, value.misses), (0, 2), "unreadable, then recomputed");
        for report in [&mut cold, &mut warm] {
            report.phases.clear();
            assert_eq!(report.to_json().to_string(), expect.to_json().to_string());
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_write_failure_degrades_without_failing_jobs() {
        struct FailingSink;
        impl std::io::Write for FailingSink {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("no space left on device"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let dir = tmp_dir("degrade");
        let (store, _) = ArtifactStore::with_disk(&dir).unwrap();
        let disk = store.disk.as_ref().unwrap();
        let (_, reused) = get(&store, fp(1), || Ok(Probe::<CACHE>(8))).unwrap();
        assert!(!reused);
        assert_eq!(store.disk_artifact_count(), 1);
        assert!(!disk.is_degraded());

        // The disk goes away mid-run: computations keep succeeding,
        // write-through silently stops, one warning is queued.
        disk.set_sink_for_tests(Box::new(FailingSink));
        let (probe, reused) = get(&store, fp(2), || Ok(Probe::<CACHE>(16))).unwrap();
        assert!(!reused);
        assert_eq!(probe.0, 16, "the job's result is unaffected");
        assert!(disk.is_degraded());
        assert!(holds::<Probe<CACHE>>(&store, fp(2)), "the log cannot answer it: it stays");
        let warning = store.take_disk_warning().expect("degradation surfaces one warning");
        assert!(warning.contains("persistence disabled"), "{warning}");
        assert!(store.take_disk_warning().is_none());

        // Reuse still works for both pre- and post-fault artifacts: the
        // one written before the fault is read back from the log, the
        // other is served from memory.
        for (key, bound) in [(fp(1), 8), (fp(2), 16)] {
            let (r, reused) = get(&store, key, || -> Result<Probe<CACHE>, _> {
                panic!("must be served from memory")
            })
            .unwrap();
            assert!(reused);
            assert_eq!(r.0, bound);
        }
        assert_eq!(store.disk_artifact_count(), 1, "only the pre-fault artifact is durable");
        store.flush_disk(); // the drain-time flush must not panic when degraded
        let _ = std::fs::remove_dir_all(&dir);
    }

    const LOOP_TASK: &str = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";

    #[test]
    fn two_runs_on_one_store_share_the_value_artifact() {
        let program = stamp_isa::asm::assemble(LOOP_TASK).unwrap();
        let store = ArtifactStore::new();
        let (_, first) = crate::WcetAnalysis::new(&program).run_full(&store).unwrap();
        let (_, second) = crate::WcetAnalysis::new(&program).run_full(&store).unwrap();
        assert!(Arc::ptr_eq(&first.va, &second.va), "the second run reads the stored fixpoint");
        assert_eq!(store.stats().phase("value").unwrap().hits, 1);
    }

    /// The offset of the first kept node's id in `bytes`, an encoded
    /// value analysis, the node count and the word-map pool's length.
    fn first_kept_node(bytes: &[u8]) -> (usize, u32, usize) {
        let mut d = stamp_codec::Dec::new(bytes);
        Vec::<u32>::dec(&mut d).unwrap();
        let pool = Vec::<std::collections::BTreeMap<u32, stamp_value::SInt>>::dec(&mut d).unwrap();
        let nodes = d.u32().unwrap();
        assert!(d.len_prefix(1).unwrap() > 0, "some node is kept");
        (bytes.len() - d.remaining(), nodes, pool.len())
    }

    /// `bytes`, an encoded value analysis, with its first kept entry
    /// state's word-map index pointed one past the end of the pool.
    fn with_dangling_word_map(bytes: &[u8]) -> Vec<u8> {
        let (at, _, pool) = first_kept_node(bytes);
        let mut d = stamp_codec::Dec::new(&bytes[at..]);
        stamp_ai::NodeId::dec(&mut d).unwrap();
        assert_eq!(d.u8().unwrap(), 1, "the first kept node is reachable");
        for _ in 0..stamp_isa::Reg::COUNT {
            stamp_value::SInt::dec(&mut d).unwrap();
        }
        let at = bytes.len() - d.remaining();
        let mut hostile = bytes.to_vec();
        hostile[at..at + 8].copy_from_slice(&(pool as u64).to_le_bytes());
        hostile
    }

    /// `bytes`, an encoded value analysis, with its first kept node's id
    /// one past the supergraph's last node.
    fn with_kept_node_out_of_range(bytes: &[u8]) -> Vec<u8> {
        let (at, nodes, _) = first_kept_node(bytes);
        let mut hostile = bytes.to_vec();
        hostile[at..at + 4].copy_from_slice(&nodes.to_le_bytes());
        hostile
    }

    #[test]
    fn hostile_value_record_is_evicted_and_recomputed() {
        let program = stamp_isa::asm::assemble(LOOP_TASK).unwrap();
        let (mut expect, cold) =
            crate::WcetAnalysis::new(&program).run_full(&ArtifactStore::disabled()).unwrap();
        expect.phases.clear();
        let good = stamp_codec::encode_value(&*cold.va);
        let config = crate::AnalysisConfig::default();
        let indirects = crate::Annotations::new().resolved_indirects(&program);
        let program_fp = crate::phase::program_fingerprint(&program);
        let key = crate::phase::PrefixKeys::new(program_fp, &indirects, &config).value;

        for (what, hostile) in [
            ("word-map index", with_dangling_word_map(&good)),
            ("kept node id", with_kept_node_out_of_range(&good)),
        ] {
            assert!(matches!(
                stamp_codec::decode_value::<stamp_value::ValueAnalysis>(&hostile),
                Err(stamp_codec::CodecError::Invalid(w)) if w == what
            ));

            // Plant the record, CRC-valid, under the job's value key.
            let dir = tmp_dir("hostile");
            DiskStore::open(&dir).unwrap().0.append(PhaseId::Value, key, &hostile);

            let (store, warnings) = ArtifactStore::with_disk(&dir).unwrap();
            assert!(warnings.is_empty(), "the record itself is intact: {warnings:?}");
            let (mut got, warm) = crate::WcetAnalysis::new(&program).run_full(&store).unwrap();
            let value = store.stats().phase("value").unwrap();
            assert_eq!((value.hits_disk, value.misses), (0, 1), "{what}: evicted, then recomputed");
            assert_eq!(stamp_codec::encode_value(&*warm.va), good);
            got.phases.clear();
            assert_eq!(got.to_json().to_string(), expect.to_json().to_string());
            drop(store);

            // The recomputed artifact was written through and now answers
            // a fresh process.
            let (disk, _) = DiskStore::open(&dir).unwrap();
            assert_eq!(disk.read(PhaseId::Value, key).unwrap(), good);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// `bytes`, an encoded CFG, with its first edge's target block
    /// pointed one past the last block.
    fn with_dangling_edge(bytes: &[u8]) -> Vec<u8> {
        let mut d = stamp_codec::Dec::new(bytes);
        let blocks = Vec::<stamp_cfg::BasicBlock>::dec(&mut d).unwrap();
        Vec::<stamp_cfg::Function>::dec(&mut d).unwrap();
        assert!(d.len_prefix(1).unwrap() > 0, "the graph has an edge");
        stamp_cfg::BlockId::dec(&mut d).unwrap(); // the first edge's source
        let at = bytes.len() - d.remaining();
        let mut hostile = bytes.to_vec();
        hostile[at..at + 4].copy_from_slice(&(blocks.len() as u32).to_le_bytes());
        hostile
    }

    #[test]
    fn hostile_cfg_record_is_evicted_and_recomputed() {
        let program = stamp_isa::asm::assemble(LOOP_TASK).unwrap();
        let (mut expect, cold) =
            crate::WcetAnalysis::new(&program).run_full(&ArtifactStore::disabled()).unwrap();
        let good = stamp_codec::encode_value(&*cold.cfg);
        let hostile = with_dangling_edge(&good);
        assert!(matches!(
            stamp_codec::decode_value::<stamp_cfg::Cfg>(&hostile),
            Err(stamp_codec::CodecError::Invalid("cfg id out of range"))
        ));

        // Plant the record, CRC-valid, under the job's CFG key.
        let config = crate::AnalysisConfig::default();
        let indirects = crate::Annotations::new().resolved_indirects(&program);
        let program_fp = crate::phase::program_fingerprint(&program);
        let key = crate::phase::PrefixKeys::new(program_fp, &indirects, &config).cfg;
        let dir = tmp_dir("hostile-cfg");
        DiskStore::open(&dir).unwrap().0.append(PhaseId::Cfg, key, &hostile);

        let (store, warnings) = ArtifactStore::with_disk(&dir).unwrap();
        assert!(warnings.is_empty(), "the record itself is intact: {warnings:?}");
        let (mut got, warm) = crate::WcetAnalysis::new(&program).run_full(&store).unwrap();
        let cfg = store.stats().phase("cfg").unwrap();
        assert_eq!((cfg.hits_disk, cfg.misses), (0, 1), "evicted, then recomputed");
        assert_eq!(stamp_codec::encode_value(&*warm.cfg), good);
        expect.phases.clear();
        got.phases.clear();
        assert_eq!(got.to_json().to_string(), expect.to_json().to_string());
        drop(store);

        // The recomputed graph was written through and now answers a
        // fresh process.
        let (disk, _) = DiskStore::open(&dir).unwrap();
        assert_eq!(disk.read(PhaseId::Cfg, key).unwrap(), good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_never_written_to_disk() {
        let dir = tmp_dir("err");
        let (store, _) = ArtifactStore::with_disk(&dir).unwrap();
        let fail = || -> Result<Probe<CACHE>, AnalysisError> {
            Err(AnalysisError::UnknownSymbol { name: "boom".into() })
        };
        get(&store, fp(7), fail).unwrap_err();
        assert_eq!(store.disk_artifact_count(), 0, "errors are per-run, not durable");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
