//! Deterministic shared worker pool for the `chebymc` workspace.
//!
//! Every parallel hot path in the workspace — the campaign runner that fans
//! out over work units and the GA's per-generation fitness evaluation —
//! shares the same execution model: a fixed index range
//! `0..count`, a pure function per index, and results written to
//! per-index slots. That model is *deterministic by construction*: the
//! value at index `i` never depends on which thread computes it or in
//! which order, so output is bit-identical for any thread count.
//!
//! This crate extracts that model into two pieces:
//!
//! * [`ThreadBudget`] — an explicit thread budget. Nested parallelism
//!   (unit layer × GA layer) splits one budget instead of oversubscribing
//!   the machine: the outer fan-out claims its workers via
//!   [`ThreadBudget::split`] and hands each job the remaining per-job
//!   budget (usually 1, i.e. a serial inner GA).
//! * [`WorkerPool`] — a persistent pool of parked worker threads. Workers
//!   are spawned once and reused across dispatches (a GA reuses one pool
//!   for all its generations; a campaign session for all its units), so
//!   the per-dispatch cost is a wake/park cycle, not a thread
//!   spawn. The calling thread always participates in the work, so a pool
//!   of budget `n` uses `n − 1` spawned workers and dispatching on a
//!   busy/empty pool can never deadlock.
//!
//! Work is distributed by an atomic chunk cursor (dynamic self-scheduling),
//! which balances uneven per-index cost without affecting results.
//! [`WorkerPool::for_each_while`], the dispatch for coarse campaign
//! units, claims one index at a time.
//!
//! # Example
//!
//! ```
//! use mc_par::{ThreadBudget, WorkerPool};
//!
//! let pool = WorkerPool::with_budget(ThreadBudget::explicit(4));
//! let mut squares = vec![0u64; 1000];
//! pool.fill(&mut squares, |i| (i as u64) * (i as u64));
//! assert_eq!(squares[31], 961);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Hard cap on any resolved thread budget, guarding against a
/// misconfigured `threads` knob spawning an absurd number of OS threads.
pub const MAX_THREADS: usize = 1024;

/// A shared view of a mutable slice for caller-proven disjoint writes.
///
/// [`WorkerPool::for_each`] hands every index to exactly one thread, which
/// makes "each thread writes its own slots" sound — but the borrow checker
/// cannot see that, so parallel scatter-writes need a raw-pointer escape
/// hatch. `DisjointSlice` packages that escape hatch once, with the
/// obligations spelled out, instead of each call site re-deriving its own
/// `*mut T` wrapper.
///
/// The wrapper borrows the slice mutably for `'a`, so no other access to
/// the underlying data can exist while it is alive; the only aliasing risk
/// left is between concurrent [`write`](Self::write) /
/// [`slice_mut`](Self::slice_mut) calls, which the caller rules out by
/// construction (distinct indices / disjoint ranges — exactly what the
/// pool's one-thread-per-index contract provides).
///
/// ```
/// use mc_par::{DisjointSlice, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let mut out = vec![0u64; 128];
/// let slots = DisjointSlice::new(&mut out);
/// pool.for_each(slots.len(), |i| {
///     // SAFETY: the pool claims each index exactly once, so no two
///     // threads ever write the same slot.
///     unsafe { slots.write(i, (i as u64) * 3) };
/// });
/// assert_eq!(out[100], 300);
/// ```
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: sharing the wrapper across threads only enables `unsafe` writes
// whose disjointness the caller must prove; `T: Send` ensures the values
// themselves may be constructed on one thread and dropped on another.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}
// SAFETY: the wrapper owns a unique borrow of the slice; moving that
// borrow to another thread is safe for `T: Send` (same rule as `&mut [T]`).
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}

impl<'a, T: Send> DisjointSlice<'a, T> {
    /// Wraps `slice` for disjoint parallel writes. The slice stays
    /// exclusively borrowed until the wrapper is dropped.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _borrow: std::marker::PhantomData,
        }
    }

    /// Length of the wrapped slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` into slot `idx`, dropping the previous value in
    /// place. Out-of-bounds indices panic.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently access slot `idx` (the usual
    /// pattern: `idx` comes off a [`WorkerPool`] dispatch, which claims
    /// each index exactly once).
    // SAFETY: obligations are on the caller, stated in `# Safety` above.
    pub unsafe fn write(&self, idx: usize, value: T) {
        assert!(idx < self.len, "index {idx} out of bounds ({})", self.len);
        // SAFETY: bounds just checked; exclusivity of the slot is the
        // caller's contract; the previous value is initialised (the
        // wrapper was built from a live slice), so plain assignment drops
        // it correctly.
        unsafe { *self.ptr.add(idx) = value };
    }

    /// Reborrows `len` slots starting at `start` as a mutable subslice.
    /// Out-of-bounds ranges panic.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently access any slot in
    /// `start..start + len` — concurrent callers must hold ranges that are
    /// pairwise disjoint (e.g. per-index rows of a flattened matrix).
    // SAFETY: obligations are on the caller, stated in `# Safety` above.
    #[allow(clippy::mut_from_ref)] // the shared-ref-to-mut escape is the point
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(
            start <= self.len && len <= self.len - start,
            "range {start}..{} out of bounds ({})",
            start + len,
            self.len
        );
        // SAFETY: bounds just checked; the caller guarantees no concurrent
        // access to this range, so a unique reborrow is sound for as long
        // as the wrapper's borrow of the underlying slice.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// An explicit thread budget for one layer of parallelism.
///
/// A budget is the *total* number of threads a computation may occupy,
/// including the calling thread. Budgets make nested parallelism additive
/// rather than multiplicative: an outer fan-out [`split`](Self::split)s
/// its budget across jobs, and each job runs its inner parallelism within
/// the returned per-job budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    threads: usize,
}

impl ThreadBudget {
    /// The machine's available parallelism (at least 1).
    pub fn available() -> Self {
        ThreadBudget {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_THREADS),
        }
    }

    /// A single-threaded budget.
    pub fn serial() -> Self {
        ThreadBudget { threads: 1 }
    }

    /// The workspace's `threads` knob convention: `0` means "all available
    /// cores", any other value is taken literally (capped at
    /// [`MAX_THREADS`]).
    pub fn explicit(threads: usize) -> Self {
        if threads == 0 {
            Self::available()
        } else {
            ThreadBudget {
                threads: threads.min(MAX_THREADS),
            }
        }
    }

    /// The number of threads in the budget (≥ 1).
    pub fn get(self) -> usize {
        self.threads
    }

    /// Splits the budget over an outer fan-out of `jobs` independent jobs.
    ///
    /// Returns `(outer, inner)`: the number of workers the outer layer
    /// should run, and the budget each job may use internally. The product
    /// `outer × inner.get()` never exceeds the original budget, so nested
    /// parallelism cannot oversubscribe.
    pub fn split(self, jobs: usize) -> (usize, ThreadBudget) {
        let outer = self.threads.min(jobs.max(1));
        let inner = ThreadBudget {
            threads: (self.threads / outer).max(1),
        };
        (outer, inner)
    }
}

impl Default for ThreadBudget {
    /// Defaults to [`ThreadBudget::available`].
    fn default() -> Self {
        Self::available()
    }
}

/// Lifetime-erased pointer to the job closure. Sound because
/// [`WorkerPool::for_each_dyn`] blocks until every worker has finished
/// with the job before returning (or unwinding), so the pointee outlives
/// all uses.
struct FnPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from many threads are safe)
// and the pointer itself is only dereferenced while the owning call frame
// is alive (see `FnPtr` docs), so sending the pointer between threads is
// safe.
unsafe impl Send for FnPtr {}

/// One published dispatch: the erased closure, the index count, and the
/// chunk size workers grab at a time.
struct Job {
    f: FnPtr,
    count: usize,
    chunk: usize,
}

struct State {
    /// Bumped once per dispatch so each worker runs each job exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Workers still owing a decrement for the current job.
    active: usize,
    shutdown: bool,
    /// First worker panic, rethrown on the calling thread.
    panic: Option<Box<dyn Any + Send + 'static>>,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
    /// Next unclaimed index of the current job.
    cursor: AtomicUsize,
}

/// Locks a mutex, ignoring poisoning (state updates are panic-free; job
/// panics are caught before the lock is taken).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Claims chunks of `0..count` off the shared cursor and applies `f`.
///
/// When tracing is on, each claimed chunk's latency lands in the
/// `par.chunk_ns` histogram (per-thread buffers, so workers never contend
/// recording it). The enabled check is hoisted out of the claim loop.
fn drain(f: &(dyn Fn(usize) + Sync), count: usize, chunk: usize, cursor: &AtomicUsize) {
    let traced = mc_obs::is_enabled();
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= count {
            return;
        }
        let t0 = if traced { mc_obs::now_ns() } else { 0 };
        for i in start..(start + chunk).min(count) {
            f(i);
        }
        if traced {
            mc_obs::record_f64("par.chunk_ns", mc_obs::now_ns().saturating_sub(t0) as f64);
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let (job, epoch) = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    let job = st.job.as_ref().expect("a new epoch always carries a job");
                    break (
                        Job {
                            f: FnPtr(job.f.0),
                            count: job.count,
                            chunk: job.chunk,
                        },
                        st.epoch,
                    );
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        seen = epoch;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: `for_each_dyn` keeps the closure alive until this
            // worker decrements `active` below.
            let f = unsafe { &*job.f.0 };
            drain(f, job.count, job.chunk, &shared.cursor);
        }));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// A persistent, deterministic worker pool.
///
/// See the [crate docs](crate) for the execution model. The pool is safe
/// to share (`&WorkerPool` dispatches take an internal run lock and are
/// serialised), and dropping it parks, wakes, and joins all workers.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serialises concurrent dispatches; the single-job protocol supports
    /// one in-flight job at a time.
    run_lock: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with the given total parallelism (`0` = all available
    /// cores). A pool of `n` threads spawns `n − 1` workers; the calling
    /// thread supplies the last lane during dispatches.
    pub fn new(threads: usize) -> Self {
        Self::with_budget(ThreadBudget::explicit(threads))
    }

    /// A pool sized to a [`ThreadBudget`].
    pub fn with_budget(budget: ThreadBudget) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let workers = budget.get().saturating_sub(1);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mc-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawn")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            run_lock: Mutex::new(()),
        }
    }

    /// A pool that runs everything inline on the calling thread.
    pub fn serial() -> Self {
        Self::with_budget(ThreadBudget::serial())
    }

    /// Total parallelism of the pool, including the calling thread.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Applies `f` to every index in `0..count`, fanning out over the
    /// pool. Returns once every index has been processed. A panic inside
    /// `f` is rethrown here after all workers have quiesced.
    ///
    /// `f` must be safe to call concurrently for distinct indices; each
    /// index is processed exactly once.
    pub fn for_each<F>(&self, count: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        // Several chunks per lane so uneven per-index cost still balances.
        let chunk = (count / (4 * self.threads())).max(1);
        self.for_each_dyn(count, chunk, &f);
    }

    /// Runs `f` over `0..count`, each lane claiming `chunk` indices at a
    /// time.
    fn for_each_dyn(&self, count: usize, chunk: usize, f: &(dyn Fn(usize) + Sync)) {
        if count == 0 {
            return;
        }
        let _span = mc_obs::span("par.dispatch");
        if mc_obs::is_enabled() {
            // "Queue depth" for a cursor-fed pool is the number of indices
            // published per dispatch: how much work the wake fans out over.
            mc_obs::counter("par.indices", count as u64);
            mc_obs::record_f64("par.queue_depth", count as f64);
        }
        if self.handles.is_empty() || count == 1 {
            for i in 0..count {
                f(i);
            }
            return;
        }
        let _dispatch = lock(&self.run_lock);
        // SAFETY: only the lifetime is erased; the pointer is dropped from
        // `State` before this frame returns (see the wait loop below).
        let ptr = FnPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
                f,
            )
        });
        {
            let mut st = lock(&self.shared.state);
            self.shared.cursor.store(0, Ordering::Relaxed);
            st.job = Some(Job {
                f: ptr,
                count,
                chunk,
            });
            st.active = self.handles.len();
            st.epoch = st.epoch.wrapping_add(1);
            self.shared.work.notify_all();
        }
        // The caller is a full work lane: with all workers busy elsewhere
        // progress is still guaranteed, so nested/queued dispatches cannot
        // deadlock.
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drain(f, count, chunk, &self.shared.cursor);
        }));
        let worker_panic = {
            let mut st = lock(&self.shared.state);
            while st.active > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Like [`WorkerPool::for_each`], but `f` returns a *continue* flag:
    /// returning `false` requests cancellation. Indices already claimed
    /// keep running to completion; unclaimed indices are skipped. Whether
    /// trailing indices run after a `false` depends on thread timing, so
    /// this is only for abandoning work whose results no longer matter
    /// (a failed campaign unit, say) — never for results that feed later
    /// computation.
    ///
    /// Lanes claim one index at a time: this is the dispatch for coarse
    /// work (campaign units of microseconds or more), where a chunk of
    /// costly indices would leave the other lanes idle.
    ///
    /// Returns `true` when every index ran without any cancellation
    /// request, `false` when at least one call returned `false`.
    pub fn for_each_while<F>(&self, count: usize, f: F) -> bool
    where
        F: Fn(usize) -> bool + Sync,
    {
        let stop = AtomicBool::new(false);
        self.for_each_dyn(count, 1, &|i| {
            if !stop.load(Ordering::Relaxed) && !f(i) {
                stop.store(true, Ordering::Relaxed);
            }
        });
        !stop.load(Ordering::Relaxed)
    }

    /// Computes `out[i] = f(i)` for every slot of `out` in parallel.
    ///
    /// This is the allocation-free workhorse behind the GA's fitness
    /// evaluation: callers keep reusable output buffers and the pool
    /// scatters results straight into them.
    pub fn fill<T, F>(&self, out: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // Serial fast path, fully monomorphized: the parallel route erases
        // `f` to `&dyn Fn` for dispatch, which blocks inlining — too
        // expensive when the pool has no workers and `f` is a few
        // nanoseconds of arithmetic (the GA's objective, say).
        if self.handles.is_empty() || out.len() <= 1 {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = f(i);
            }
            return;
        }
        let slots = DisjointSlice::new(out);
        let slots = &slots;
        self.for_each(slots.len(), |i| {
            let value = f(i);
            // SAFETY: `for_each` hands each index to exactly one thread,
            // so this thread is the sole writer of slot `i`.
            unsafe { slots.write(i, value) };
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn budget_resolution() {
        assert_eq!(ThreadBudget::serial().get(), 1);
        assert!(ThreadBudget::available().get() >= 1);
        assert_eq!(ThreadBudget::explicit(3).get(), 3);
        assert_eq!(ThreadBudget::explicit(0), ThreadBudget::available());
        assert_eq!(ThreadBudget::explicit(usize::MAX).get(), MAX_THREADS);
        assert_eq!(ThreadBudget::default(), ThreadBudget::available());
    }

    #[test]
    fn budget_split_never_oversubscribes() {
        for total in 1..=16usize {
            for jobs in 1..=40usize {
                let (outer, inner) = ThreadBudget::explicit(total).split(jobs);
                assert!(outer >= 1 && inner.get() >= 1);
                assert!(outer <= jobs.max(1));
                assert!(
                    outer * inner.get() <= total,
                    "split({total}, {jobs}) = ({outer}, {})",
                    inner.get()
                );
            }
        }
        // Degenerate fan-out: everything goes to the inner budget.
        let (outer, inner) = ThreadBudget::explicit(8).split(0);
        assert_eq!((outer, inner.get()), (1, 8));
        let (outer, inner) = ThreadBudget::explicit(8).split(2);
        assert_eq!((outer, inner.get()), (2, 4));
    }

    #[test]
    fn every_index_runs_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
            pool.for_each(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn fill_is_bit_identical_across_thread_counts() {
        let f = |i: usize| ((i as f64) * 0.1).sin().exp();
        let mut reference = vec![0.0f64; 1000];
        WorkerPool::serial().fill(&mut reference, f);
        for threads in [2, 5, 8] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0.0f64; 1000];
            pool.fill(&mut out, f);
            assert!(
                reference
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{threads} threads diverged"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_dispatches() {
        let pool = WorkerPool::new(4);
        for round in 0..50usize {
            let mut out = vec![0usize; 64];
            pool.fill(&mut out, |i| i + round);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i + round));
        }
    }

    #[test]
    fn empty_and_tiny_dispatches() {
        let pool = WorkerPool::new(4);
        pool.for_each(0, |_| panic!("must not run"));
        let mut one = [0u8];
        pool.fill(&mut one, |_| 7);
        assert_eq!(one[0], 7);
    }

    #[test]
    fn for_each_while_runs_everything_without_cancellation() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            let complete = pool.for_each_while(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                true
            });
            assert!(complete);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn for_each_while_cancellation_skips_pending_work() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let ran = AtomicU64::new(0);
            let complete = pool.for_each_while(10_000, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i != 5 // cancel once index 5 is seen
            });
            assert!(!complete);
            // Index 5 is claimed early (low indices come off the cursor
            // first), so a large tail of the range must have been skipped.
            assert!(
                ran.load(Ordering::Relaxed) < 10_000,
                "{} indices ran despite cancellation ({threads} threads)",
                ran.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn for_each_while_spreads_costly_head_indices_over_the_lanes() {
        // Indices 0–7 cost 5 ms each; a chunk of 64 / (4·2) = 8 would hand
        // all of them to one lane.
        let pool = WorkerPool::new(2);
        let lanes: Vec<Mutex<Option<std::thread::ThreadId>>> =
            (0..64).map(|_| Mutex::new(None)).collect();
        pool.for_each_while(lanes.len(), |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            *lock(&lanes[i]) = Some(std::thread::current().id());
            true
        });
        let head: std::collections::HashSet<_> =
            lanes[..8].iter().map(|lane| lock(lane).unwrap()).collect();
        assert_eq!(head.len(), 2, "indices 0-7 all ran on one lane");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each(100, |i| {
                if i == 63 {
                    panic!("boom at {i}");
                }
            });
        }));
        assert!(result.is_err());
        // The pool still works after a caught panic.
        let mut out = vec![0usize; 32];
        pool.fill(&mut out, |i| i);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn nested_dispatch_from_inside_a_job_does_not_deadlock() {
        let outer = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        outer.for_each(4, |_| {
            // Each job runs its own serial inner budget, as the unit × GA
            // layering does.
            let inner = WorkerPool::serial();
            inner.for_each(10, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn disjoint_slice_row_writes_match_serial() {
        // Each index owns a 4-slot row; parallel row writes must produce
        // exactly the serial result for any thread count.
        const ROW: usize = 4;
        let rows = 301usize;
        let fill_row = |i: usize, row: &mut [u64]| {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = (i * ROW + j) as u64 * 7;
            }
        };
        let mut reference = vec![0u64; rows * ROW];
        for i in 0..rows {
            fill_row(i, &mut reference[i * ROW..(i + 1) * ROW]);
        }
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0u64; rows * ROW];
            let slots = DisjointSlice::new(&mut out);
            pool.for_each(rows, |i| {
                // SAFETY: rows are disjoint per index and each index is
                // claimed by exactly one thread.
                let row = unsafe { slots.slice_mut(i * ROW, ROW) };
                fill_row(i, row);
            });
            assert_eq!(out, reference, "{threads} threads");
        }
    }

    #[test]
    fn disjoint_slice_drops_previous_values() {
        let mut data = vec![String::from("old"); 8];
        let slots = DisjointSlice::new(&mut data);
        for i in 0..slots.len() {
            // SAFETY: single-threaded, each index written once.
            unsafe { slots.write(i, format!("new-{i}")) };
        }
        assert_eq!(data[3], "new-3");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn disjoint_slice_bounds_checked() {
        let mut data = [0u8; 4];
        let slots = DisjointSlice::new(&mut data);
        // SAFETY: single-threaded; the call must panic on bounds, not UB.
        unsafe { slots.write(4, 1) };
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn disjoint_slice_range_bounds_checked() {
        let mut data = [0u8; 4];
        let slots = DisjointSlice::new(&mut data);
        // SAFETY: single-threaded; the call must panic on bounds, not UB.
        let _ = unsafe { slots.slice_mut(2, 3) };
    }

    #[test]
    fn shared_pool_dispatches_from_many_threads() {
        let pool = WorkerPool::new(3);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    let mut out = vec![0usize; 200];
                    pool.fill(&mut out, |i| i * t);
                    assert!(out.iter().enumerate().all(|(i, &v)| v == i * t));
                });
            }
        });
    }
}
