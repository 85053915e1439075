//! The shared work-stealing executor every parallel driver runs on.
//!
//! One entry point, [`run_ordered`]: an **atomic-cursor claim** over a
//! precomputed, indexed work list (one uncontended `fetch_add` per
//! claim — measured 5.6 vs 13.7 ns against the old `Mutex<VecDeque>`
//! queue), worker threads streaming `(index, output)` pairs to the
//! calling thread over an `mpsc` channel, and a [`Reorder`] buffer that
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
//! same result it would have had without the panic. A
//! [`RunPolicy::max_worker_restarts`] budget bounds how many panics a
//! single run absorbs; exhausting it surfaces a typed
//! [`ExecutorError::RestartBudgetExhausted`] instead of a raw panic.
//!
//! Runs can also be **interrupted cooperatively**: a
//! [`RunPolicy::stop`] flag is checked at every claim point, and a
//! tripped flag drains the run into
//! [`ExecutorError::Interrupted`] after the in-flight items finish —
//! the sink has then seen a clean, contiguous prefix of the work list,
//! which is exactly what the checkpoint layer
//! ([`crate::checkpoint`]) persists.
//!
//! Recovery paths are exercised deterministically, not by luck: a
//! test-only [`FaultPlan`] plants panics at chosen item indices or
//! claim ordinals, mirroring the planted-bug philosophy of the
//! `faulty` backend.
//!
//! Determinism contract: the executor guarantees *delivery order*
//! (index order) and nothing else. Byte-identical results across
//! worker counts — and across panic/re-lease schedules — additionally
//! require each item's output to be independent of which worker ran it
//! and of the other items that worker ran before — the per-index RNG
//! law ([`crate::mutation::mutant_rng`]) plus history-independent
//! submissions from the canonical target state, exactly the properties
//! the campaign and guided determinism suites pin.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};

/// Marker prefix carried by every panic [`FaultPlan`] injects, so test
/// harnesses (and [`quiet_injected_faults`]) can tell planted faults
/// from real bugs.
pub const INJECTED_FAULT: &str = "injected executor fault";

/// Deterministic harness-fault injection for executor tests.
///
/// A `FaultPlan` plants panics inside the executor's claim loop — the
/// same philosophy as the `faulty` backend's planted bugs: recovery
/// paths are exercised on purpose, at chosen points, rather than by
/// luck. Three triggers compose:
///
/// * [`panic_once_at`](Self::panic_once_at) — panic the first time the
///   given **item index** is claimed; the re-executed attempt runs
///   clean (the trigger is consumed).
/// * [`panic_always_at`](Self::panic_always_at) — panic on **every**
///   claim of the given item index; with a finite restart budget this
///   deterministically exhausts it.
/// * [`panic_at_claim`](Self::panic_at_claim) — panic on the n-th
///   **claim ordinal** of the run (0-based, counted across all
///   workers in claim order), independent of which item was claimed.
///   Ordinals are per [`run_ordered`] invocation.
///
/// The plan is interior-mutable and `Sync`; thread it into a run via
/// [`RunPolicy::faults`]. Injected panics carry the
/// [`INJECTED_FAULT`] prefix and otherwise go through the normal
/// panic machinery (so they exercise exactly the production recovery
/// path); call [`quiet_injected_faults`] in tests to keep them out of
/// the test output.
#[derive(Debug, Default)]
pub struct FaultPlan {
    once: Mutex<BTreeSet<usize>>,
    always: BTreeSet<usize>,
    claims: Mutex<BTreeSet<u64>>,
}

impl FaultPlan {
    /// An empty plan: no faults fire.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic the first time item `index` is claimed; later re-claims
    /// of the same index run clean.
    #[must_use]
    pub fn panic_once_at(self, index: usize) -> Self {
        lock(&self.once).insert(index);
        self
    }

    /// Panic on every claim of item `index` — the deterministic way to
    /// exhaust a restart budget.
    #[must_use]
    pub fn panic_always_at(mut self, index: usize) -> Self {
        self.always.insert(index);
        self
    }

    /// Panic on the claim with ordinal `ordinal` (0-based, counted
    /// across all workers of one run in claim order), regardless of
    /// which item that claim drew.
    #[must_use]
    pub fn panic_at_claim(self, ordinal: u64) -> Self {
        lock(&self.claims).insert(ordinal);
        self
    }

    /// Called by the executor after each claim, before the item runs;
    /// panics if a trigger fires.
    pub fn trip(&self, index: usize, claim_ordinal: u64) {
        if lock(&self.once).remove(&index) {
            // lint:allow(panic-path-audit) -- deliberate: FaultPlan exists to
            // inject worker panics and exercise the production recovery path
            panic!("{INJECTED_FAULT}: one-shot panic at item {index} (claim {claim_ordinal})");
        }
        if self.always.contains(&index) {
            // lint:allow(panic-path-audit) -- deliberate: FaultPlan exists to
            // inject worker panics and exercise the production recovery path
            panic!("{INJECTED_FAULT}: persistent panic at item {index} (claim {claim_ordinal})");
        }
        if lock(&self.claims).remove(&claim_ordinal) {
            // lint:allow(panic-path-audit) -- deliberate: FaultPlan exists to
            // inject worker panics and exercise the production recovery path
            panic!("{INJECTED_FAULT}: panic at claim {claim_ordinal} (item {index})");
        }
    }
}

/// Install a process-wide panic hook that suppresses the default
/// "thread panicked" report for [`FaultPlan`]-injected panics (payloads
/// carrying the [`INJECTED_FAULT`] prefix) and forwards everything
/// else to the previous hook.
///
/// Test-suite convenience: injected faults are *expected* panics, and
/// without this every recovery test would spray backtraces into the
/// output. Idempotent; safe to call from concurrent tests.
pub fn quiet_injected_faults() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .is_some_and(|s| s.starts_with(INJECTED_FAULT));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Fault-tolerance knobs for one executor run.
///
/// The default policy is a restart budget of
/// [`RunPolicy::DEFAULT_MAX_WORKER_RESTARTS`], no stop flag, no fault
/// injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPolicy<'a> {
    /// How many worker panics one run absorbs before giving up with
    /// [`ExecutorError::RestartBudgetExhausted`]. Each absorbed panic
    /// tears down the panicking worker's context and re-leases the
    /// lost index; `0` means the first panic is fatal. `None` uses
    /// [`RunPolicy::DEFAULT_MAX_WORKER_RESTARTS`].
    pub max_worker_restarts: Option<usize>,
    /// Cooperative stop flag, checked at every claim point. Once it
    /// reads `true`, workers stop claiming (in-flight items finish),
    /// and the run returns [`ExecutorError::Interrupted`] after the
    /// delivered prefix reaches the sink.
    pub stop: Option<&'a AtomicBool>,
    /// Deterministic fault injection (tests only).
    pub faults: Option<&'a FaultPlan>,
}

impl RunPolicy<'_> {
    /// Default panic budget per run: generous enough to ride out a
    /// flaky worker, small enough that a deterministic crash-loop
    /// (every re-execution panics again) fails fast.
    pub const DEFAULT_MAX_WORKER_RESTARTS: usize = 8;

    fn budget(&self) -> usize {
        self.max_worker_restarts
            .unwrap_or(Self::DEFAULT_MAX_WORKER_RESTARTS)
    }

    /// Whether the policy's stop flag (if any) has been tripped — the
    /// check the engines share at their own synchronization points
    /// (generation loop top, fold boundaries) in addition to the
    /// executor's claim points.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.stop.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// Why a fault-tolerant run did not deliver the full work list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorError {
    /// More worker panics than [`RunPolicy::max_worker_restarts`]
    /// allows; the run poisoned itself instead of crash-looping.
    RestartBudgetExhausted {
        /// The configured budget that was exceeded.
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
    /// A [`RunPolicy::stop`] flag was tripped; the sink received the
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
    /// Claim ordinal counter feeding [`FaultPlan::panic_at_claim`].
    claim_ordinal: AtomicU64,
    /// Indices abandoned *after* poisoning (never re-leased).
    lost: Mutex<Vec<usize>>,
    /// Message of the most recent worker panic.
    last_panic: Mutex<String>,
}

impl FaultState {
    fn new() -> Self {
        Self {
            releases: Mutex::new(Vec::new()),
            released: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            claim_ordinal: AtomicU64::new(0),
            lost: Mutex::new(Vec::new()),
            last_panic: Mutex::new(String::new()),
        }
    }

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
/// plain data (a `Vec`, a `String`, a `BTreeSet`), and no code panics
/// while holding one — [`FaultPlan::trip`] panics only after its lock is
/// released.
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

/// The index-reorder buffer every ordered fold shares: outputs arrive
/// tagged with their index in any order, and leave in index order —
/// eagerly when the next index arrives, parked while a gap is open.
/// [`run_ordered`]'s aggregator and [`crate::parallel::CampaignEngine`]
/// order through this one type.
#[derive(Debug)]
pub struct Reorder<R> {
    /// Outputs that ran ahead of a gap, keyed by index.
    parked: BTreeMap<usize, R>,
    /// The next index to deliver; everything below it has been.
    next: usize,
}

impl<R> Default for Reorder<R> {
    /// An empty buffer expecting index 0 first.
    fn default() -> Self {
        Self {
            parked: BTreeMap::new(),
            next: 0,
        }
    }
}

impl<R> Reorder<R> {
    /// Accept `out` for `index` and hand every output that is now
    /// next-in-order to `deliver`, in index order. Each index must be
    /// pushed at most once (callers deduplicate — the executor by
    /// construction, the coordinator through its ledger).
    pub fn push(&mut self, index: usize, out: R, mut deliver: impl FnMut(usize, R)) {
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
    #[must_use]
    pub fn delivered(&self) -> usize {
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
/// * `policy` controls panic recovery, cooperative stop, and fault
///   injection ([`RunPolicy::default`] absorbs up to
///   [`RunPolicy::DEFAULT_MAX_WORKER_RESTARTS`] worker panics).
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
/// `policy.max_worker_restarts`; [`ExecutorError::Interrupted`] when
/// `policy.stop` trips before the work list drains.
pub fn run_ordered<T, R, C, B, W, S>(
    items: &[T],
    jobs: usize,
    policy: &RunPolicy<'_>,
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
        policy,
        budget: policy.budget(),
        cursor: AtomicUsize::new(0),
        faults: FaultState::new(),
        worker_ctx: &worker_ctx,
        work: &work,
    };
    let mut order = Reorder::default();
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
    policy: &'a RunPolicy<'a>,
    budget: usize,
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
            policy,
            faults,
            ..
        } = self;
        let mut ctx: Option<C> = None;
        loop {
            // Claim point: honour poisoning and stop requests before
            // taking on more work.
            if faults.poisoned.load(Ordering::Acquire) || policy.stop_requested() {
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
            let ordinal = faults.claim_ordinal.fetch_add(1, Ordering::Relaxed);
            // The lazy context build shares the panic scope with `work`:
            // a panicking constructor is recovered the same way as a
            // panicking item.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = policy.faults {
                    plan.trip(index, ordinal);
                }
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
                    if panics > self.budget {
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
                budget: self.budget,
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Collect the ordered deliveries, as batch callers do in their sink.
    fn collect<T: Sync, R: Send, C>(
        items: &[T],
        jobs: usize,
        policy: &RunPolicy<'_>,
        worker_ctx: impl Fn() -> C + Sync,
        work: impl Fn(&mut C, usize, &T) -> R + Sync,
    ) -> Result<Vec<R>, ExecutorError> {
        let mut out = Vec::with_capacity(items.len());
        run_ordered(items, jobs, policy, worker_ctx, work, |_, r| out.push(r))?;
        Ok(out)
    }

    fn faulty(plan: &FaultPlan) -> RunPolicy<'_> {
        RunPolicy {
            faults: Some(plan),
            ..RunPolicy::default()
        }
    }

    #[test]
    fn outputs_come_back_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1usize, 2, 8] {
            let out = collect(
                &items,
                jobs,
                &RunPolicy::default(),
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
            &RunPolicy::default(),
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
            &RunPolicy::default(),
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
            &RunPolicy::default(),
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
            collect(
                &items,
                jobs,
                &RunPolicy::default(),
                || (),
                |(), _, _| std::thread::current().id(),
            )
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
        let policy = RunPolicy {
            stop: Some(&stop),
            ..RunPolicy::default()
        };
        let ran = AtomicUsize::new(0);
        let err = run_ordered(
            &items,
            1,
            &policy,
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
            &RunPolicy::default(),
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
        let out = collect(&items, 64, &RunPolicy::default(), || (), |(), _, &v| v + 1);
        assert_eq!(out, Ok(vec![8, 9, 10]));
    }

    #[test]
    fn injected_panic_is_recovered_byte_identically() {
        quiet_injected_faults();
        let items: Vec<usize> = (0..50).collect();
        let reference: Vec<usize> = items.iter().map(|v| v * 7).collect();
        for jobs in [1usize, 2, 4] {
            let plan = FaultPlan::new()
                .panic_once_at(3)
                .panic_once_at(17)
                .panic_once_at(49);
            let out = collect(&items, jobs, &faulty(&plan), || (), |(), _, &v| v * 7)
                .expect("panics within budget must be absorbed");
            assert_eq!(out, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn claim_ordinal_faults_are_recovered() {
        quiet_injected_faults();
        let items: Vec<usize> = (0..32).collect();
        let plan = FaultPlan::new().panic_at_claim(0).panic_at_claim(9);
        let out = collect(&items, 2, &faulty(&plan), || (), |(), _, &v| v + 1)
            .expect("claim faults within budget must be absorbed");
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_worker_rebuilds_a_fresh_context() {
        quiet_injected_faults();
        let items: Vec<usize> = (0..10).collect();
        let built = AtomicUsize::new(0);
        let plan = FaultPlan::new().panic_once_at(4);
        let out = collect(
            &items,
            1,
            &faulty(&plan),
            || built.fetch_add(1, Ordering::Relaxed),
            |_ctx, _, &v| v,
        )
        .expect("one panic is within the default budget");
        assert_eq!(out, items);
        // One worker, one panic: the original context plus the fresh
        // rebuild after the teardown.
        assert_eq!(built.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn exhausted_restart_budget_is_a_typed_error() {
        quiet_injected_faults();
        let items: Vec<usize> = (0..8).collect();
        let plan = FaultPlan::new().panic_always_at(5);
        let policy = RunPolicy {
            max_worker_restarts: Some(2),
            faults: Some(&plan),
            ..RunPolicy::default()
        };
        let err = collect(&items, 2, &policy, || (), |(), _, &v| v)
            .expect_err("a persistent fault must exhaust the budget");
        match &err {
            ExecutorError::RestartBudgetExhausted {
                budget,
                panics,
                lost,
                last_panic,
            } => {
                assert_eq!(*budget, 2);
                assert_eq!(*panics, 3);
                assert!(
                    lost.contains(&5),
                    "lost {lost:?} must contain the faulty index"
                );
                assert!(last_panic.starts_with(INJECTED_FAULT), "got {last_panic:?}");
            }
            other => panic!("expected RestartBudgetExhausted, got {other:?}"),
        }
        assert!(err.to_string().contains("restart budget exhausted"));
    }

    #[test]
    fn pre_tripped_stop_flag_interrupts_immediately() {
        let items: Vec<usize> = (0..16).collect();
        let stop = AtomicBool::new(true);
        let policy = RunPolicy {
            stop: Some(&stop),
            ..RunPolicy::default()
        };
        let err = collect(&items, 4, &policy, || (), |(), _, &v| v)
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
        let policy = RunPolicy {
            stop: Some(&stop),
            ..RunPolicy::default()
        };
        let mut delivered = Vec::new();
        let err = run_ordered(
            &items,
            2,
            &policy,
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
        quiet_injected_faults();
        // The first context build panics (via a one-shot fault on the
        // first claim ordinal); the retry builds cleanly.
        let items: Vec<usize> = (0..6).collect();
        let plan = FaultPlan::new().panic_at_claim(0);
        let out = collect(&items, 1, &faulty(&plan), || (), |(), _, &v| v * 2)
            .expect("context-build panic must be absorbed");
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }
}
