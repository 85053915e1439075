//! The shared work-stealing executor every parallel driver runs on.
//!
//! One entry point, [`run_ordered`]: an **atomic-cursor claim** over a
//! precomputed, indexed work list (one uncontended `fetch_add` per
//! claim — measured 5.6 vs 13.7 ns against the old `Mutex<VecDeque>`
//! queue), worker threads streaming `(index, output)` pairs to the
//! calling thread over an `mpsc` channel, and a reorder buffer that
//! re-establishes **item order** whatever the completion order was.
//! The chunked campaign ([`crate::parallel::ParallelCampaign`]), the
//! generational guided engine
//! ([`crate::guided::run_guided_shared_session`]) and the CLI's guided
//! ensembles all shard on it; callers that want a `Vec` collect in
//! their sink.
//!
//! Each item runs through `work` on whichever worker stole it, and
//! every output reaches `sink` **in item-index order** on the calling
//! thread — eagerly, as soon as the next-in-order output exists, so a
//! deterministic fold can consume results while workers are still
//! running. Out-of-order arrivals are parked by index, so memory
//! scales with the *out-of-order window* (bounded by how far the
//! fastest worker runs ahead), not with the work list.
//!
//! A run with **one worker spawns no thread**: the same claim loop runs
//! on the calling thread and hands each output straight to the reorder
//! buffer. A thread and a channel per run bought nothing there, and
//! their cost is not steady — a spawn, a join and one futex wake per
//! output, 2× dearer whenever the scheduler puts the worker on another
//! CPU than the caller (measured on `guided`, one run per 64-slot
//! generation: 35 ms vs 78 ms of CPU for the same 8 000 slots).
//!
//! Workers can carry state across the items they claim:
//! `worker_ctx` builds one context per worker thread, **lazily** on its
//! first claim — a worker that never steals anything never pays for a
//! context. This is how the guided engine gives every worker a private
//! booted [`crate::target::FuzzTarget`] instance that serves all the
//! slots the worker steals in a generation, instead of paying one
//! boot-to-`s1` per work item.
//!
//! # Fault tolerance
//!
//! Every `work` call (together with the lazy context build that may
//! precede it) runs under [`std::panic::catch_unwind`]. When a worker
//! panics:
//!
//! * its context is **torn down** (the panicking state is dropped, and
//!   the worker rebuilds a fresh context lazily on its next claim — a
//!   logical respawn without paying for a new OS thread);
//! * the claimed index is pushed onto a shared **re-lease list** that
//!   every worker checks before touching the cursor, so a surviving
//!   worker (or the recovered panicker) re-claims it and re-executes.
//!
//! Because each item's output is required to be independent of which
//! worker ran it and of that worker's history (the determinism
//! contract below), a re-executed item is **byte-identical** to what
//! the lost attempt would have produced — the run completes with the
//! same result it would have had without the panic. A run absorbs at
//! most [`MAX_WORKER_RESTARTS`] panics; one more surfaces a typed
//! [`ExecutorError::RestartBudgetExhausted`] instead of a raw panic.
//! Tests reach this path the way a real fault does: their own `work` or
//! `worker_ctx` closure panics, or the target their factory builds does.
//!
//! Runs can also be **interrupted cooperatively**: an optional stop
//! flag is checked at every claim point, and a tripped flag drains the
//! run into [`ExecutorError::Interrupted`] after the in-flight items
//! finish — the sink has then seen a clean, contiguous prefix of the
//! work list, which is exactly what the checkpoint layer
//! ([`crate::checkpoint`]) persists.
//!
//! Determinism contract: the executor guarantees *delivery order*
//! (index order) and nothing else. Byte-identical results across
//! worker counts — and across panic/re-lease schedules — additionally
//! require each item's output to be independent of which worker ran it
//! and of the other items that worker ran before — the per-index RNG
//! law ([`crate::mutation::mutant_rng`]) plus history-independent
//! submissions from the canonical target state, exactly the properties
//! the campaign and guided determinism suites pin.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};

/// How many worker panics one [`run_ordered`] call absorbs before it
/// gives up with [`ExecutorError::RestartBudgetExhausted`]: generous
/// enough to ride out a flaky worker, small enough that a deterministic
/// crash loop (every re-execution panics again) fails fast.
pub const MAX_WORKER_RESTARTS: usize = 8;

/// Why a fault-tolerant run did not deliver the full work list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorError {
    /// More worker panics than [`MAX_WORKER_RESTARTS`] allows; the run
    /// poisoned itself instead of crash-looping.
    RestartBudgetExhausted {
        /// The budget that was exceeded ([`MAX_WORKER_RESTARTS`]).
        budget: usize,
        /// Total worker panics observed (always `budget + 1` at the
        /// point of poisoning; more only if several workers panicked
        /// concurrently).
        panics: usize,
        /// Item indices that were claimed but never delivered, sorted.
        lost: Vec<usize>,
        /// Panic message of the last observed worker panic.
        last_panic: String,
    },
    /// The run's stop flag was tripped; the sink received the
    /// contiguous prefix `0..delivered` and nothing else.
    Interrupted {
        /// Items delivered to the sink before the run wound down.
        delivered: usize,
        /// Total length of the work list.
        total: usize,
    },
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RestartBudgetExhausted {
                budget,
                panics,
                lost,
                last_panic,
            } => write!(
                f,
                "worker restart budget exhausted: {panics} panics exceed the budget of \
                 {budget}; lost item indices {lost:?}; last panic: {last_panic}"
            ),
            Self::Interrupted { delivered, total } => {
                write!(
                    f,
                    "run interrupted by stop request after {delivered} of {total} items"
                )
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// What the workers share besides the cursor: the re-lease list and
/// the panic/poison/stop bookkeeping around it.
#[derive(Default)]
struct FaultState {
    /// Indices lost to worker panics, waiting to be re-claimed.
    releases: Mutex<Vec<usize>>,
    /// Fast-path mirror of `releases.len()` so the claim loop only
    /// locks when there is something to re-claim.
    released: AtomicUsize,
    /// Total worker panics observed this run.
    panics: AtomicUsize,
    /// Set once the panic count exceeds the budget; all workers wind
    /// down at their next claim point.
    poisoned: AtomicBool,
    /// Indices abandoned *after* poisoning (never re-leased).
    lost: Mutex<Vec<usize>>,
    /// Message of the most recent worker panic.
    last_panic: Mutex<String>,
}

impl FaultState {
    /// Pop a re-leased index if any are pending. One relaxed load on
    /// the empty fast path — the claim loop stays lock-free unless a
    /// panic actually happened.
    fn pop_release(&self) -> Option<usize> {
        if self.released.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut releases = lock(&self.releases);
        let index = releases.pop();
        self.released.store(releases.len(), Ordering::Release);
        index
    }

    fn push_release(&self, index: usize) {
        let mut releases = lock(&self.releases);
        releases.push(index);
        self.released.store(releases.len(), Ordering::Release);
    }

    /// Collect every index that was claimed but never delivered.
    fn lost_indices(&self) -> Vec<usize> {
        let mut lost: Vec<usize> = lock(&self.lost).clone();
        lost.extend(lock(&self.releases).iter().copied());
        lost.sort_unstable();
        lost
    }
}

/// Lock `mutex` whether or not it is poisoned: every lock here guards
/// plain data (a `Vec` or a `String`), and no code panics while holding
/// one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// [`run_ordered`]'s index-reorder buffer: outputs arrive tagged with
/// their index in any order, and leave in index order — eagerly when
/// the next index arrives, parked while a gap is open.
struct Reorder<R> {
    /// Outputs that ran ahead of a gap, keyed by index.
    parked: BTreeMap<usize, R>,
    /// The next index to deliver; everything below it has been.
    next: usize,
}

impl<R> Reorder<R> {
    /// Accept `out` for `index` and hand every output that is now
    /// next-in-order to `deliver`, in index order. Each index is pushed
    /// at most once: a re-leased index is only re-run after its first
    /// attempt panicked.
    fn push(&mut self, index: usize, out: R, mut deliver: impl FnMut(usize, R)) {
        debug_assert!(index >= self.next, "index {index} was already delivered");
        if index != self.next {
            self.parked.insert(index, out);
            return;
        }
        deliver(index, out);
        self.next += 1;
        while let Some(out) = self.parked.remove(&self.next) {
            deliver(self.next, out);
            self.next += 1;
        }
    }

    /// Outputs delivered so far — the contiguous prefix `0..delivered`.
    fn delivered(&self) -> usize {
        self.next
    }
}

/// Shard `items` across at most `jobs` worker threads and deliver each
/// item's output to `sink` in **item-index order**, eagerly.
///
/// * Workers claim indices off an atomic cursor (one `fetch_add` per
///   claim, no lock on the hot path).
/// * `worker_ctx` runs on the worker thread, once per worker, lazily at
///   its first successful claim; the context is handed to every `work`
///   call that worker makes.
/// * `sink` runs on the calling thread, concurrently with the workers;
///   out-of-order completions are parked until the gap before them
///   fills.
/// * One worker (`jobs == 1`, or a single item) is the calling thread
///   itself: no thread is spawned and `sink` runs between items.
/// * `stop`, when given, is checked at every claim point; up to
///   [`MAX_WORKER_RESTARTS`] worker panics are absorbed.
///
/// On success the sink has seen every index in order, exactly once —
/// byte-identical to a run without panics, because re-leased indices
/// re-execute under the same per-index determinism law. On
/// [`ExecutorError::Interrupted`] the sink has seen the contiguous
/// prefix `0..delivered`; outputs parked beyond the first gap are
/// discarded (their indices re-execute on resume). On
/// [`ExecutorError::RestartBudgetExhausted`] the sink likewise saw a
/// clean prefix, and the error lists the indices that were lost.
///
/// # Errors
///
/// [`ExecutorError::RestartBudgetExhausted`] when worker panics exceed
/// [`MAX_WORKER_RESTARTS`]; [`ExecutorError::Interrupted`] when `stop`
/// trips before the work list drains.
pub fn run_ordered<T, R, C, B, W, S>(
    items: &[T],
    jobs: usize,
    stop: Option<&AtomicBool>,
    worker_ctx: B,
    work: W,
    mut sink: S,
) -> Result<(), ExecutorError>
where
    T: Sync,
    R: Send,
    B: Fn() -> C + Sync,
    W: Fn(&mut C, usize, &T) -> R + Sync,
    S: FnMut(usize, R),
{
    if items.is_empty() {
        return Ok(());
    }
    let workers = jobs.min(items.len()).max(1);
    let run = Run {
        items,
        stop,
        cursor: AtomicUsize::new(0),
        faults: FaultState::default(),
        worker_ctx: &worker_ctx,
        work: &work,
    };
    let mut order = Reorder {
        parked: BTreeMap::new(),
        next: 0,
    };
    if workers == 1 {
        run.claim_loop(|index, out| {
            order.push(index, out, &mut sink);
            true
        });
    } else {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let run = &run;
                // A failed send means the aggregator is gone; nothing
                // left to do.
                scope.spawn(move || run.claim_loop(|index, out| tx.send((index, out)).is_ok()));
            }
            drop(tx);
            for (index, out) in rx {
                order.push(index, out, &mut sink);
            }
        });
    }
    run.outcome(order.delivered())
}

/// What the workers of one [`run_ordered`] call share.
struct Run<'a, T, B, W> {
    items: &'a [T],
    stop: Option<&'a AtomicBool>,
    cursor: AtomicUsize,
    faults: FaultState,
    worker_ctx: &'a B,
    work: &'a W,
}

impl<T, B, W> Run<'_, T, B, W> {
    /// One worker: claim, run and `emit` items until the list drains,
    /// the run is poisoned or stopped, or `emit` returns `false`.
    fn claim_loop<R, C>(&self, mut emit: impl FnMut(usize, R) -> bool)
    where
        B: Fn() -> C,
        W: Fn(&mut C, usize, &T) -> R,
    {
        let Self {
            items,
            stop,
            faults,
            ..
        } = self;
        let mut ctx: Option<C> = None;
        loop {
            // Claim point: honour poisoning and stop requests before
            // taking on more work.
            if faults.poisoned.load(Ordering::Acquire)
                || stop.is_some_and(|flag| flag.load(Ordering::Relaxed))
            {
                break;
            }
            // Re-leased indices take priority over the cursor so a lost
            // item is recovered as soon as any worker is free.
            let index = match faults.pop_release() {
                Some(index) => index,
                None => self.cursor.fetch_add(1, Ordering::Relaxed),
            };
            // Past the end of the list: the cursor has drained it.
            let Some(item) = items.get(index) else {
                break;
            };
            // The lazy context build shares the panic scope with `work`:
            // a panicking constructor is recovered the same way as a
            // panicking item.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let ctx = ctx.get_or_insert_with(self.worker_ctx);
                (self.work)(ctx, index, item)
            }));
            match attempt {
                Ok(out) => {
                    if !emit(index, out) {
                        break;
                    }
                }
                Err(payload) => {
                    // Tear down the panicking context; the next claim
                    // rebuilds a fresh one (the worker "respawns" in
                    // place).
                    ctx = None;
                    *lock(&faults.last_panic) = panic_message(payload.as_ref());
                    drop(payload);
                    let panics = faults.panics.fetch_add(1, Ordering::AcqRel) + 1;
                    if panics > MAX_WORKER_RESTARTS {
                        // Poison *before* recording the index as lost so
                        // no racing worker can rescue it: budget
                        // exhaustion must surface deterministically.
                        faults.poisoned.store(true, Ordering::Release);
                        lock(&faults.lost).push(index);
                        break;
                    }
                    faults.push_release(index);
                }
            }
        }
    }

    /// The run's result once every worker has wound down and `delivered`
    /// outputs reached the sink.
    fn outcome(&self, delivered: usize) -> Result<(), ExecutorError> {
        if delivered == self.items.len() {
            return Ok(());
        }
        let faults = &self.faults;
        if faults.poisoned.load(Ordering::Acquire) {
            return Err(ExecutorError::RestartBudgetExhausted {
                budget: MAX_WORKER_RESTARTS,
                panics: faults.panics.load(Ordering::Acquire),
                lost: faults.lost_indices(),
                last_panic: lock(&faults.last_panic).clone(),
            });
        }
        Err(ExecutorError::Interrupted {
            delivered,
            total: self.items.len(),
        })
    }
}

/// Worker count of the host (`std::thread::available_parallelism`),
/// falling back to 1 where the hint is unavailable.
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Collect the ordered deliveries, as batch callers do in their sink.
    fn collect<T: Sync, R: Send, C>(
        items: &[T],
        jobs: usize,
        worker_ctx: impl Fn() -> C + Sync,
        work: impl Fn(&mut C, usize, &T) -> R + Sync,
    ) -> Result<Vec<R>, ExecutorError> {
        let mut out = Vec::with_capacity(items.len());
        run_ordered(items, jobs, None, worker_ctx, work, |_, r| out.push(r))?;
        Ok(out)
    }

    /// Item indices whose first run panics; a re-run goes through. The
    /// recovery tests plant it in their own `work` closure, so the panic
    /// takes the production path out of `work`.
    struct PanicOnce(Mutex<BTreeSet<usize>>);

    impl PanicOnce {
        fn at(indices: &[usize]) -> Self {
            Self(Mutex::new(indices.iter().copied().collect()))
        }

        fn trip(&self, index: usize) {
            if lock(&self.0).remove(&index) {
                panic!("planted panic at item {index}");
            }
        }
    }

    #[test]
    fn outputs_come_back_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1usize, 2, 8] {
            let out = collect(
                &items,
                jobs,
                || (),
                |(), i, &v| {
                    assert_eq!(i, v);
                    v * 3
                },
            );
            assert_eq!(out, Ok((0..100).map(|v| v * 3).collect::<Vec<_>>()));
        }
    }

    #[test]
    fn sink_sees_strictly_increasing_indices() {
        let items: Vec<u32> = (0..64).collect();
        let mut seen = Vec::new();
        run_ordered(
            &items,
            4,
            None,
            || (),
            |(), _, &v| v,
            |index, v| {
                seen.push(index);
                assert_eq!(v as usize, index);
            },
        )
        .expect("no faults, no stop flag");
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_contexts_are_lazy_and_bounded_by_jobs() {
        let items: Vec<usize> = (0..40).collect();
        let built = AtomicUsize::new(0);
        let out = collect(
            &items,
            3,
            || built.fetch_add(1, Ordering::Relaxed),
            |_ctx, _, &v| v,
        );
        assert_eq!(out, Ok(items.clone()));
        let built = built.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&built),
            "contexts must be built once per stealing worker, got {built}"
        );
    }

    #[test]
    fn context_persists_across_a_workers_claims() {
        // With one worker, a single context serves every item, so a
        // per-context counter ends at the item count.
        let items: Vec<usize> = (0..25).collect();
        let out = collect(
            &items,
            1,
            || 0usize,
            |count, _, _| {
                *count += 1;
                *count
            },
        );
        assert_eq!(out, Ok((1..=25).collect::<Vec<_>>()));
    }

    #[test]
    fn one_worker_is_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..8).collect();
        let ran_on = |jobs| {
            collect(&items, jobs, || (), |(), _, _| std::thread::current().id())
                .expect("no faults, no stop flag")
        };
        assert!(ran_on(1).iter().all(|id| *id == caller));
        assert!(ran_on(2).iter().all(|id| *id != caller));
    }

    #[test]
    fn a_stop_from_the_sink_of_a_one_worker_run_is_exact() {
        // The sink runs between items, so the item after the one whose
        // delivery tripped the flag is never claimed.
        let items: Vec<usize> = (0..200).collect();
        let stop = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        let err = run_ordered(
            &items,
            1,
            Some(&stop),
            || (),
            |(), _, &v| {
                ran.fetch_add(1, Ordering::Relaxed);
                v
            },
            |index, _| {
                if index == 4 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        )
        .expect_err("stop mid-run must interrupt");
        assert_eq!(
            err,
            ExecutorError::Interrupted {
                delivered: 5,
                total: 200
            }
        );
        assert_eq!(ran.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn empty_items_are_a_no_op() {
        let mut fired = false;
        let outcome = run_ordered(
            &[0u32; 0],
            4,
            None,
            || (),
            |(), _, &v| v,
            |_, _| fired = true,
        );
        assert_eq!(outcome, Ok(()));
        assert!(!fired);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [7u64, 8, 9];
        let out = collect(&items, 64, || (), |(), _, &v| v + 1);
        assert_eq!(out, Ok(vec![8, 9, 10]));
    }

    #[test]
    fn injected_panic_is_recovered_byte_identically() {
        let items: Vec<usize> = (0..50).collect();
        let reference: Vec<usize> = items.iter().map(|v| v * 7).collect();
        for jobs in [1usize, 2, 4] {
            let planted = PanicOnce::at(&[3, 17, 49]);
            let out = collect(
                &items,
                jobs,
                || (),
                |(), i, &v| {
                    planted.trip(i);
                    v * 7
                },
            )
            .expect("panics within budget must be absorbed");
            assert_eq!(out, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn claim_ordinal_faults_are_recovered() {
        // Panic on the 1st and 10th `work` call, whichever items those
        // draw: the fault follows the schedule, not the item.
        let items: Vec<usize> = (0..32).collect();
        let calls = AtomicUsize::new(0);
        let out = collect(
            &items,
            2,
            || (),
            |(), _, &v| {
                let call = calls.fetch_add(1, Ordering::Relaxed);
                if call == 0 || call == 9 {
                    panic!("planted panic at call {call}");
                }
                v + 1
            },
        )
        .expect("claim faults within budget must be absorbed");
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 34, "two calls re-ran");
    }

    #[test]
    fn panicking_worker_rebuilds_a_fresh_context() {
        let items: Vec<usize> = (0..10).collect();
        let built = AtomicUsize::new(0);
        let planted = PanicOnce::at(&[4]);
        let out = collect(
            &items,
            1,
            || built.fetch_add(1, Ordering::Relaxed),
            |_ctx, i, &v| {
                planted.trip(i);
                v
            },
        )
        .expect("one panic is within the budget");
        assert_eq!(out, items);
        // One worker, one panic: the original context plus the fresh
        // rebuild after the teardown.
        assert_eq!(built.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn exhausted_restart_budget_is_a_typed_error() {
        let items: Vec<usize> = (0..8).collect();
        let err = collect(
            &items,
            2,
            || (),
            |(), i, &v| {
                if i == 5 {
                    panic!("planted panic at item {i}, every time");
                }
                v
            },
        )
        .expect_err("a persistent fault must exhaust the budget");
        match &err {
            ExecutorError::RestartBudgetExhausted {
                budget,
                panics,
                lost,
                last_panic,
            } => {
                assert_eq!(*budget, MAX_WORKER_RESTARTS);
                assert_eq!(*budget, 8);
                // Only one worker at a time can hold the faulty index.
                assert_eq!(*panics, 9);
                assert!(
                    lost.contains(&5),
                    "lost {lost:?} must contain the faulty index"
                );
                assert!(
                    last_panic.contains("planted panic at item 5"),
                    "got {last_panic:?}"
                );
            }
            other => panic!("expected RestartBudgetExhausted, got {other:?}"),
        }
        assert!(err.to_string().contains("restart budget exhausted"));
    }

    #[test]
    fn pre_tripped_stop_flag_interrupts_immediately() {
        let items: Vec<usize> = (0..16).collect();
        let stop = AtomicBool::new(true);
        let err = run_ordered(&items, 4, Some(&stop), || (), |(), _, &v| v, |_, _| {})
            .expect_err("a pre-tripped stop flag must interrupt");
        assert_eq!(
            err,
            ExecutorError::Interrupted {
                delivered: 0,
                total: 16
            }
        );
    }

    #[test]
    fn stop_mid_run_delivers_a_contiguous_prefix() {
        let items: Vec<usize> = (0..200).collect();
        let stop = AtomicBool::new(false);
        let mut delivered = Vec::new();
        let err = run_ordered(
            &items,
            2,
            Some(&stop),
            || (),
            |(), _, &v| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                v
            },
            |index, v| {
                assert_eq!(index, v);
                delivered.push(index);
                if delivered.len() == 5 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        )
        .expect_err("stop mid-run must interrupt");
        match err {
            ExecutorError::Interrupted {
                delivered: n,
                total,
            } => {
                assert_eq!(total, 200);
                assert_eq!(n, delivered.len());
                assert!(n >= 5, "the first five deliveries happened before the stop");
                assert!(n < 200, "the stop must cut the run short");
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // The sink saw exactly the contiguous prefix.
        assert_eq!(delivered, (0..delivered.len()).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_context_build_is_recovered() {
        // The first context build panics; the retry builds cleanly and
        // the item it was built for runs on it.
        let items: Vec<usize> = (0..6).collect();
        let builds = AtomicUsize::new(0);
        let out = collect(
            &items,
            1,
            || {
                if builds.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("planted panic in the first context build");
                }
            },
            |(), _, &v| v * 2,
        )
        .expect("context-build panic must be absorbed");
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
    }
}
