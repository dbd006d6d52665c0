//! # stamp-exec — the batch execution pool
//!
//! A small scoped worker pool built directly on [`std::thread::scope`]
//! (the build environment has no crates.io access, so no rayon). Jobs
//! are drawn from a shared queue — an atomic index over the job slice,
//! the degenerate but contention-free form of work stealing: every idle
//! worker "steals" the next unclaimed index — and results land in a
//! slot vector indexed by job position, so the output order is the
//! input order no matter how the scheduler interleaves workers.
//!
//! Three properties matter to the callers in `stamp_core`:
//!
//! 1. **Deterministic results.** [`Pool::map`] returns `Vec<T>` in job
//!    order. Parallel execution affects only wall time, never the
//!    content or order of results — the batch-report determinism
//!    invariant (parallel run bit-identical to serial) reduces to each
//!    job being a pure function of its input, which `stamp` analyses
//!    are: a job computes its artifacts or reads immutable ones that
//!    another job published under the same input fingerprint.
//! 2. **Panic propagation with provenance.** A panicking job does not
//!    abort the process or deadlock the pool: remaining workers drain,
//!    and the pool returns [`PoolError::JobPanicked`] naming the lowest
//!    failing job index (lowest, so the error too is deterministic when
//!    several jobs fail — see the proof sketch at the poison flag).
//! 3. **No idle spin.** Workers exit as soon as the queue is empty or a
//!    panic has been recorded; the scope join is the only barrier.
//!
//! # Example
//!
//! ```
//! use stamp_exec::Pool;
//!
//! let squares = Pool::new(4)
//!     .map(&[1u64, 2, 3, 4, 5], |_idx, &x| x * x)
//!     .unwrap();
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub mod cancel;
mod slot;

pub use cancel::{CancelToken, Cancelled};
pub use slot::{Slot, SlotClaim, SlotFillGuard};

/// A failure of a pool run.
#[derive(Debug)]
pub enum PoolError {
    /// A job panicked. Carries the job's index, its label (supplied by
    /// [`Pool::map_labeled`], the index rendered as text otherwise) and
    /// the panic payload rendered as text.
    JobPanicked {
        /// Index of the failing job in the input slice.
        index: usize,
        /// The job's label (its name in batch runs).
        label: String,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::JobPanicked { index, label, message } => {
                write!(f, "job #{index} `{label}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// The per-job result of [`Pool::map_labeled_deadline`]: the job's
/// value, or a record that its deadline expired first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineOutcome<T> {
    /// The job completed within its deadline.
    Done(T),
    /// The job was cancelled at a checkpoint after its deadline passed.
    DeadlineExceeded,
}

impl<T> DeadlineOutcome<T> {
    /// The completed value, if the job finished in time.
    pub fn into_done(self) -> Option<T> {
        match self {
            DeadlineOutcome::Done(v) => Some(v),
            DeadlineOutcome::DeadlineExceeded => None,
        }
    }
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as
/// text: `&str` and `String` payloads verbatim, anything else opaquely.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f` on the current thread with panic isolation, under its own
/// [`CancelToken`] when `budget` is set (measured from now). A
/// [`Cancelled`] unwind from a checkpoint past the budget is a per-job
/// timeout, not a crash, and comes back as
/// [`DeadlineOutcome::DeadlineExceeded`]; a genuine panic comes back as
/// its message. This is the worker body of
/// [`Pool::map_labeled_deadline`] and of the serve layer's job runner.
///
/// # Errors
///
/// The panic message when `f` panics.
pub fn run_guarded<T>(
    budget: Option<Duration>,
    f: impl FnOnce() -> T,
) -> Result<DeadlineOutcome<T>, String> {
    let run = || match budget {
        Some(budget) => cancel::with_token(&CancelToken::with_deadline(budget), f),
        None => f(),
    };
    // AssertUnwindSafe: callers share only state that is unwind-safe by
    // design (each job owns its analysis; the batch layer's artifact
    // store releases an in-flight slot in its guard's Drop).
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(v) => Ok(DeadlineOutcome::Done(v)),
        Err(payload) if payload.is::<Cancelled>() => Ok(DeadlineOutcome::DeadlineExceeded),
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

/// The worker pool. Holds only a worker count — threads are scoped to
/// each [`Pool::map`] call, so a `Pool` is free to construct and keep.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool running jobs on `workers` threads. `0` is treated as `1`
    /// (the serial pool, which still goes through the same queue so the
    /// execution path is identical to the parallel one).
    pub fn new(workers: usize) -> Pool {
        Pool { workers: workers.max(1) }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every item, in parallel across the pool's workers,
    /// returning the results **in item order**.
    ///
    /// # Errors
    ///
    /// [`PoolError::JobPanicked`] if any job panics; the error names the
    /// lowest failing index.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Result<Vec<T>, PoolError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_labeled(items, |i, _| i.to_string(), f)
    }

    /// Like [`Pool::map`], but with a labelling function so panics can
    /// be attributed by name ("which job of the batch failed") rather
    /// than by index alone.
    pub fn map_labeled<I, T, L, F>(&self, items: &[I], label: L, f: F) -> Result<Vec<T>, PoolError>
    where
        I: Sync,
        T: Send,
        L: Fn(usize, &I) -> String + Sync,
        F: Fn(usize, &I) -> T + Sync,
    {
        let outcomes = self.map_labeled_deadline(items, label, None, f)?;
        Ok(outcomes
            .into_iter()
            .map(|o| match o {
                DeadlineOutcome::Done(v) => v,
                DeadlineOutcome::DeadlineExceeded => {
                    unreachable!("no deadline was set, so no job can exceed one")
                }
            })
            .collect())
    }

    /// Like [`Pool::map_labeled`], but each job runs under its own
    /// [`CancelToken`] carrying `deadline` (measured from that job's
    /// start, not from the batch's). A job whose kernels reach a
    /// [`cancel::checkpoint`] after its deadline unwinds with the
    /// [`Cancelled`] marker and lands as
    /// [`DeadlineOutcome::DeadlineExceeded`] in its result slot; the
    /// rest of the batch keeps running. Genuine panics still poison the
    /// pool exactly as in [`Pool::map_labeled`].
    pub fn map_labeled_deadline<I, T, L, F>(
        &self,
        items: &[I],
        label: L,
        deadline: Option<Duration>,
        f: F,
    ) -> Result<Vec<DeadlineOutcome<T>>, PoolError>
    where
        I: Sync,
        T: Send,
        L: Fn(usize, &I) -> String + Sync,
        F: Fn(usize, &I) -> T + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let workers = self.workers.min(items.len());

        // The shared queue: the next unclaimed job index.
        let next = AtomicUsize::new(0);
        // Set as soon as any job panics, so workers stop claiming jobs.
        // Poisoning cannot hide the lowest panicking job L from the
        // error: `fetch_add` hands out indices as a contiguous prefix
        // 0..k and a claimed job always runs (the poison check precedes
        // the claim), so if any panicker was claimed then L — which has
        // a smaller index — was claimed, ran, panicked, and won the
        // min-index race below; if no panicker was claimed, nothing
        // poisoned and every job ran. Either way the reported index is
        // exactly L, independent of scheduling.
        let poisoned = AtomicBool::new(false);
        // One result slot per job, filled out of order, read in order.
        let slots: Vec<Mutex<Option<DeadlineOutcome<T>>>> =
            (0..items.len()).map(|_| Mutex::new(None)).collect();
        // The lowest-index panic seen so far.
        let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if poisoned.load(Ordering::Acquire) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // A panicking job leaves its result slot empty.
                    match run_guarded(deadline, || f(i, &items[i])) {
                        Ok(outcome) => *slots[i].lock().unwrap() = Some(outcome),
                        Err(msg) => {
                            let mut slot = first_panic.lock().unwrap();
                            match &*slot {
                                Some((lowest, _)) if *lowest <= i => {}
                                _ => *slot = Some((i, msg)),
                            }
                            poisoned.store(true, Ordering::Release);
                        }
                    }
                });
            }
        });

        if let Some((index, message)) = first_panic.into_inner().unwrap() {
            return Err(PoolError::JobPanicked {
                index,
                label: label(index, &items[index]),
                message,
            });
        }
        Ok(slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("no panic recorded, so every slot is filled"))
            .collect())
    }
}

/// The machine's available parallelism (for a `--jobs` default), `1`
/// when it cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 200] {
            let got = Pool::new(workers).map(&items, |_, &x| x * 3 + 1).unwrap();
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_spawns_nothing_and_returns_empty() {
        let got: Vec<u32> = Pool::new(8).map(&[] as &[u32], |_, _| unreachable!()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn zero_workers_is_the_serial_pool() {
        assert_eq!(Pool::new(0).workers(), 1);
        let got = Pool::new(0).map(&[10u32, 20], |i, &x| x + i as u32).unwrap();
        assert_eq!(got, vec![10, 21]);
    }

    #[test]
    fn panic_is_propagated_with_label_and_message() {
        let items = ["ok-1", "explodes", "ok-2"];
        let err = Pool::new(2)
            .map_labeled(
                &items,
                |_, name| name.to_string(),
                |_, &name| {
                    if name == "explodes" {
                        panic!("boom in {name}");
                    }
                    name.len()
                },
            )
            .unwrap_err();
        let PoolError::JobPanicked { index, label, message } = err;
        assert_eq!(index, 1);
        assert_eq!(label, "explodes");
        assert!(message.contains("boom in explodes"), "{message}");
    }

    #[test]
    fn lowest_failing_index_wins_when_serial() {
        // With one worker the queue is drained in order, so the first
        // panic encountered is job 0 regardless of later failures.
        let err = Pool::new(1).map(&[0u32, 1, 2], |i, _| panic!("job {i}")).unwrap_err();
        let PoolError::JobPanicked { index, message, .. } = err;
        assert_eq!(index, 0);
        assert!(message.contains("job 0"));
    }

    #[test]
    fn error_display_names_the_job() {
        let err = PoolError::JobPanicked {
            index: 3,
            label: "matmult@no-cache".into(),
            message: "oops".into(),
        };
        assert_eq!(err.to_string(), "job #3 `matmult@no-cache` panicked: oops");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn deadline_map_times_out_slow_jobs_and_completes_fast_ones() {
        // Job 1 spins through checkpoints against an already-expired
        // deadline; jobs 0 and 2 never checkpoint and finish normally.
        let got = Pool::new(2)
            .map_labeled_deadline(
                &[0u32, 1, 2],
                |i, _| i.to_string(),
                Some(Duration::from_millis(0)),
                |_, &x| {
                    if x == 1 {
                        loop {
                            cancel::checkpoint();
                        }
                    }
                    x * 10
                },
            )
            .unwrap();
        assert_eq!(
            got,
            vec![
                DeadlineOutcome::Done(0),
                DeadlineOutcome::DeadlineExceeded,
                DeadlineOutcome::Done(20),
            ]
        );
    }

    #[test]
    fn deadline_map_still_propagates_real_panics() {
        let err = Pool::new(2)
            .map_labeled_deadline(
                &["fine", "crashes"],
                |_, name| name.to_string(),
                Some(Duration::from_secs(3600)),
                |_, &name| {
                    if name == "crashes" {
                        panic!("genuine crash");
                    }
                    name.len()
                },
            )
            .unwrap_err();
        let PoolError::JobPanicked { label, message, .. } = err;
        assert_eq!(label, "crashes");
        assert!(message.contains("genuine crash"));
    }

    #[test]
    fn no_deadline_means_no_token_and_no_timeouts() {
        let got = Pool::new(2)
            .map_labeled_deadline(
                &[1u32, 2, 3],
                |i, _| i.to_string(),
                None,
                |_, &x| {
                    for _ in 0..1000 {
                        cancel::checkpoint();
                    }
                    x
                },
            )
            .unwrap();
        assert!(got.iter().all(|o| o.into_done().is_some()));
    }
}
