//! A small work-sharing scheduler for the embarrassingly parallel sweeps
//! and for the relaxed-greedy phase loop.
//!
//! Everything runs on one primitive, the **parallel region**
//! ([`region`]): the calling thread works as worker 0 and the other
//! workers are scoped threads spawned once for the region. Each worker
//! borrows its own scratch value from a slice the caller owns, so a
//! caller that keeps the slice (the phase engine keeps one
//! `BucketScratch` per worker) reuses the scratch across regions. Inside
//! a region every worker runs the same closure; it hands out work with
//! [`Worker::map_claimed`] and separates steps with [`Worker::barrier`]
//! and [`Worker::serial`]:
//!
//! * **Dynamic load balancing** — workers claim the next unclaimed index
//!   of a step from a shared atomic counter, so an expensive item never
//!   leaves the other workers idle.
//! * **Deterministic results** — every result carries the index of the
//!   item that produced it, and the caller receives the merged output in
//!   input order. The output of a parallel step is byte-identical to the
//!   sequential one, whatever the thread count.
//! * **`TC_THREADS` override** — setting the environment variable
//!   `TC_THREADS=<k>` pins every pool in the process to `k` workers
//!   (`TC_THREADS=1` recovers fully sequential execution; CI runs the
//!   suite both pinned and unpinned).
//! * **Structured panic propagation** — if a worker (the caller
//!   included) panics, the others leave the region at their next barrier
//!   and the first panic payload, by worker index, is re-raised on the
//!   calling thread via [`std::panic::resume_unwind`]; no partial results
//!   escape.
//! * **One worker spawns nothing** — a region over a single scratch value
//!   runs its closure inline on the caller, and its barriers and
//!   `map_claimed` steps reduce to plain sequential code.
//!
//! Steps pass data through values declared *before* the region (a
//! `OnceLock` the caller fills in a [`Worker::serial`] section, a
//! [`ClaimQueue`] per claimed step): every crate forbids `unsafe`, so a
//! worker cannot borrow a closure that outlives the region, and the
//! region's program is written out as one closure that every worker runs.
//!
//! [`par_map_with`] is the one-shot form: one region with one claimed
//! step. The module lives in `tc-graph` (rather than the bench crate where
//! its first version grew) so the graph algorithms themselves can use it;
//! see `docs/PERFORMANCE.md` for the threading contract.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Name of the environment variable that pins the worker-thread count.
pub const THREADS_ENV: &str = "TC_THREADS";

/// The most indices one claim of a [`Worker::map_claimed`] step takes.
const MAX_GRAIN: usize = 64;

/// Regions that ran on more than one worker, process-wide.
static PARALLEL_REGIONS: AtomicUsize = AtomicUsize::new(0);

/// Resolves the worker-thread count for a parallel region.
///
/// Priority order:
///
/// 1. `TC_THREADS` from the environment, when set and at least 1;
/// 2. `requested`, when non-zero (callers that let the user configure a
///    pool size pass it here);
/// 3. [`std::thread::available_parallelism`], falling back to 1.
///
/// The thread count never affects results — only wall-clock time — so the
/// override is a performance/debugging knob, not a correctness switch.
pub fn thread_count(requested: usize) -> usize {
    if let Some(k) = env_threads() {
        return k;
    }
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn env_threads() -> Option<usize> {
    let raw = std::env::var(THREADS_ENV).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    trimmed.parse::<usize>().ok().filter(|&k| k >= 1)
}

/// Number of regions this process has run on more than one worker (the
/// one-worker inline path does not count). Tests read it to check that a
/// workload actually took the parallel path.
pub fn parallel_regions() -> usize {
    PARALLEL_REGIONS.load(Ordering::Relaxed)
}

/// The shared state of one region's workers: a reusable barrier with an
/// abandon flag that releases every waiter once some worker panicked.
struct Team {
    workers: usize,
    arrived: Mutex<usize>,
    generation: AtomicUsize,
    abandoned: AtomicBool,
    wake: Condvar,
}

/// Unwind payload of a worker that left a region because another worker
/// panicked; never re-raised on the caller.
struct Abandoned;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Team {
    fn new(workers: usize) -> Self {
        Self {
            workers,
            arrived: Mutex::new(0),
            generation: AtomicUsize::new(0),
            abandoned: AtomicBool::new(false),
            wake: Condvar::new(),
        }
    }

    /// Runs one worker's share, turning its panic into an abandoned team
    /// so the other workers stop waiting for it.
    fn guard<R>(&self, share: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
        panic::catch_unwind(AssertUnwindSafe(share)).inspect_err(|_| {
            let _arrived = lock(&self.arrived);
            self.abandoned.store(true, Ordering::Release);
            self.wake.notify_all();
        })
    }

    fn leave() -> ! {
        panic::resume_unwind(Box::new(Abandoned))
    }

    /// Waits until every worker arrived; the last one to arrive runs
    /// `action` before anyone is released.
    fn barrier_then(&self, action: impl FnOnce()) {
        let mut arrived = lock(&self.arrived);
        if self.abandoned.load(Ordering::Acquire) {
            drop(arrived);
            Self::leave();
        }
        let generation = self.generation.load(Ordering::Acquire);
        *arrived += 1;
        if *arrived == self.workers {
            *arrived = 0;
            action();
            self.generation.store(generation + 1, Ordering::Release);
            self.wake.notify_all();
            return;
        }
        // An early worker sleeps until the last one arrives, so it costs
        // nothing while the caller works alone; spinning before the sleep
        // measured no faster (docs/PERFORMANCE.md, "Threading").
        while self.generation.load(Ordering::Acquire) == generation
            && !self.abandoned.load(Ordering::Acquire)
        {
            arrived = self
                .wake
                .wait(arrived)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(arrived);
        if self.generation.load(Ordering::Acquire) == generation {
            Self::leave();
        }
    }
}

/// One worker's handle inside a [`region`]: its index, the team size, and
/// the step primitives.
pub struct Worker<'r> {
    index: usize,
    team: &'r Team,
}

impl Worker<'_> {
    /// This worker's index; the calling thread is worker 0.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether this worker is the calling thread (worker 0).
    pub fn is_caller(&self) -> bool {
        self.index == 0
    }

    /// Waits until every worker of the region reached this barrier. A
    /// worker panics out of the region here if another worker panicked.
    pub fn barrier(&self) {
        if self.team.workers > 1 {
            self.team.barrier_then(|| ());
        }
    }

    /// Runs `f` on the caller only, then waits at a barrier, so whatever
    /// `f` publishes (say, into a `OnceLock` declared before the region)
    /// is visible to every worker afterwards. Returns `f`'s value on the
    /// caller and `None` on the other workers.
    pub fn serial<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        let out = self.is_caller().then(f);
        self.barrier();
        out
    }

    /// One claimed step: every worker calls this with the same `total`,
    /// claims indices of `0..total` in small contiguous blocks, and runs
    /// `f` on each. The step ends with a barrier; the caller then receives
    /// the results in index order (the other workers receive an empty
    /// vector). The result is identical to `(0..total).map(f).collect()`
    /// whatever the thread count, which is exactly what the one-worker
    /// path runs.
    ///
    /// `queue` carries the claims and the merge; it may serve any number
    /// of consecutive steps of one region.
    pub fn map_claimed<R: Send>(
        &self,
        queue: &ClaimQueue<R>,
        total: usize,
        mut f: impl FnMut(usize) -> R,
    ) -> Vec<R> {
        let workers = self.team.workers;
        if workers == 1 {
            return (0..total).map(f).collect();
        }
        // About eight claims per worker: enough to balance uneven items,
        // few enough that cheap items do not queue on the shared counter.
        let grain = (total / (8 * workers)).clamp(1, MAX_GRAIN);
        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let start = queue.next.fetch_add(grain, Ordering::Relaxed);
            if start >= total {
                break;
            }
            let end = (start + grain).min(total);
            local.push((start, (start..end).map(&mut f).collect()));
        }
        if !local.is_empty() {
            lock(&queue.parts).append(&mut local);
        }
        self.team.barrier_then(|| {
            let parts = std::mem::take(&mut *lock(&queue.parts));
            *lock(&queue.merged) = merge_blocks(parts, total);
            queue.next.store(0, Ordering::Relaxed);
        });
        if self.is_caller() {
            std::mem::take(&mut *lock(&queue.merged))
        } else {
            Vec::new()
        }
    }
}

/// The claimed step results of a [`ClaimQueue`]: `(first index, results)`
/// blocks as the workers deposit them.
type Blocks<R> = Vec<(usize, Vec<R>)>;

/// The claim counter and merge buffers of [`Worker::map_claimed`] steps.
/// Declare one before the region for each kind of step result.
pub struct ClaimQueue<R> {
    next: AtomicUsize,
    parts: Mutex<Blocks<R>>,
    merged: Mutex<Vec<R>>,
}

impl<R> ClaimQueue<R> {
    /// An idle queue.
    pub fn new() -> Self {
        Self {
            next: AtomicUsize::new(0),
            parts: Mutex::new(Vec::new()),
            merged: Mutex::new(Vec::new()),
        }
    }
}

impl<R> Default for ClaimQueue<R> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `work` once on each of `scratch.len()` workers — the calling
/// thread as worker 0 with `scratch[0]`, and one scoped thread per further
/// scratch value — and returns worker 0's result.
///
/// A one-element slice spawns nothing: `work` runs inline. Otherwise
/// `scratch.len() − 1` threads are spawned once for the whole region, so
/// a caller that has several steps to run should run them all in one
/// region, separated by [`Worker::barrier`]s. If any worker panics, the
/// others leave at their next barrier and the first payload by worker
/// index is re-raised here once all have returned.
///
/// # Panics
///
/// Panics if `scratch` is empty, and re-raises a worker's panic.
pub fn region<S, R, F>(scratch: &mut [S], work: F) -> R
where
    S: Send,
    F: Fn(&Worker<'_>, &mut S) -> R + Sync,
{
    let team = Team::new(scratch.len());
    let Some((first, rest)) = scratch.split_first_mut() else {
        // Documented contract (see `# Panics`). tc-lint: allow(panic-hygiene)
        panic!("a parallel region needs at least one worker scratch");
    };
    if rest.is_empty() {
        return work(
            &Worker {
                index: 0,
                team: &team,
            },
            first,
        );
    }
    PARALLEL_REGIONS.fetch_add(1, Ordering::Relaxed);
    let team = &team;
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                scope.spawn(move || {
                    team.guard(|| {
                        work(&Worker { index: i + 1, team }, s);
                    })
                })
            })
            .collect();
        let caller = team.guard(|| work(&Worker { index: 0, team }, first));
        let mut failure: Option<Box<dyn Any + Send>> = None;
        let mut keep = |payload: Box<dyn Any + Send>| {
            if failure.is_none() && !payload.is::<Abandoned>() {
                failure = Some(payload);
            }
        };
        let result = match caller {
            Ok(value) => Some(value),
            Err(payload) => {
                keep(payload);
                None
            }
        };
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) | Err(payload) => keep(payload),
            }
        }
        match (failure, result) {
            (None, Some(value)) => value,
            (Some(payload), _) => panic::resume_unwind(payload),
            // Only an abandoned caller has no result, and abandoning
            // needs a real panic first. tc-lint: allow(panic-hygiene)
            (None, None) => panic!("a region worker left without a panic payload"),
        }
    })
}

/// Applies `work` to every item of `items` on up to `max_threads` worker
/// threads, handing each worker one scratch value built by `init`, and
/// returns the results in input order.
///
/// `work` receives `(scratch, index, item)`. The scratch value is created
/// once per *worker*, not once per item — reuse it for allocations that
/// would otherwise be paid per item (distance arrays, bucket rings). The
/// result sequence is identical to
/// `items.iter().enumerate().map(|(i, x)| work(&mut init(), i, x))`
/// regardless of the thread count. This is one [`region`] with one
/// claimed step.
pub fn par_map_with<T, S, R, I, W>(items: &[T], max_threads: usize, init: I, work: W) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = thread_count(max_threads).min(items.len()).max(1);
    let mut scratch: Vec<S> = (0..threads).map(|_| init()).collect();
    let queue = ClaimQueue::new();
    region(&mut scratch, |worker, scratch| {
        worker.map_claimed(&queue, items.len(), |i| work(scratch, i, &items[i]))
    })
}

/// Restores input order from the claimed blocks. Every index in
/// `0..total` is claimed exactly once, so the blocks sorted by their first
/// index concatenate to the results in input order.
fn merge_blocks<T>(mut parts: Blocks<T>, total: usize) -> Vec<T> {
    parts.sort_unstable_by_key(|&(start, _)| start);
    let merged: Vec<T> = parts.into_iter().flat_map(|(_, block)| block).collect();
    assert_eq!(
        merged.len(),
        total,
        "every claimed index must produce exactly one result"
    );
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_with_matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 128] {
            let got = par_map_with(&items, threads, || 0u64, |_, _, &x| x * x + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_with_reuses_worker_scratch() {
        // Each worker's scratch counts how many items it processed; the sum
        // over workers must equal the item count even though workers claim
        // dynamically.
        let items: Vec<usize> = (0..50).collect();
        let counts = par_map_with(
            &items,
            4,
            || 0usize,
            |seen, _, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(counts.len(), 50);
        // Scratch counters are per worker, so each starts at 1 and every
        // item gets a positive counter value.
        assert!(counts.iter().all(|&(_, c)| c >= 1));
        // Values are in input order regardless of which worker ran them.
        let xs: Vec<usize> = counts.iter().map(|&(x, _)| x).collect();
        assert_eq!(xs, items);
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// A region of `workers` workers in which worker `culprit` panics
    /// after the first barrier while the others wait at the second.
    fn region_with_panicking_worker(workers: usize, culprit: usize) -> String {
        let mut scratch = vec![0usize; workers];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            region(&mut scratch, |w, _| {
                w.barrier();
                if w.index() == culprit {
                    panic!("worker {culprit} exploded");
                }
                w.barrier();
                w.index()
            })
        }))
        .expect_err("the worker's panic must propagate");
        panic_message(err.as_ref())
    }

    #[test]
    fn a_panic_in_a_spawned_worker_propagates() {
        assert_eq!(region_with_panicking_worker(3, 2), "worker 2 exploded");
    }

    #[test]
    fn a_panic_in_the_callers_share_propagates() {
        assert_eq!(region_with_panicking_worker(3, 0), "worker 0 exploded");
        assert_eq!(region_with_panicking_worker(1, 0), "worker 0 exploded");
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_payload() {
        let items: Vec<usize> = (0..8).collect();
        let err = std::panic::catch_unwind(|| {
            par_map_with(
                &items,
                4,
                || (),
                |_, _, &i| {
                    assert!(i != 5, "item five exploded");
                    i
                },
            )
        })
        .expect_err("a panicking item must propagate");
        assert_eq!(panic_message(err.as_ref()), "item five exploded");
    }

    #[test]
    fn a_panic_inside_a_claimed_step_propagates() {
        let mut scratch = vec![(); 2];
        let queue = ClaimQueue::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            region(&mut scratch, |w, _| {
                w.map_claimed(&queue, 40, |i| {
                    assert!(i != 17, "item 17 exploded");
                    i
                })
            })
        }))
        .expect_err("the item's panic must propagate");
        assert_eq!(panic_message(err.as_ref()), "item 17 exploded");
    }

    #[test]
    fn claimed_steps_handle_zero_items_and_fewer_items_than_workers() {
        for workers in [1, 2, 4] {
            let mut scratch = vec![(); workers];
            let queue = ClaimQueue::new();
            let (empty, few, many) = region(&mut scratch, |w, _| {
                let empty = w.map_claimed(&queue, 0, |i| i);
                let few = w.map_claimed(&queue, 1, |i| i * 10);
                let many = w.map_claimed(&queue, 9, |i| i * i);
                (empty, few, many)
            });
            assert!(empty.is_empty(), "workers = {workers}");
            assert_eq!(few, vec![0], "workers = {workers}");
            assert_eq!(many, (0..9).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map_with(&[] as &[u8], 4, || (), |_, _, &x| x).is_empty());
        assert_eq!(par_map_with(&[3u8], 4, || (), |_, _, &x| x), vec![3]);
    }

    #[test]
    fn serial_sections_publish_to_every_worker() {
        let mut scratch = vec![0usize; 3];
        let slot = std::sync::OnceLock::new();
        let seen = region(&mut scratch, |w, seen| {
            let caller_value = w.serial(|| {
                let _ = slot.set(41);
                7
            });
            *seen = slot.get().copied().unwrap_or(0) + 1;
            caller_value
        });
        assert_eq!(seen, Some(7));
        assert_eq!(scratch, vec![42; 3]);
    }

    #[test]
    fn worker_scratch_is_reused_across_regions() {
        // Each worker counts the items it processed into its own scratch;
        // the slice outlives both regions, so the counts accumulate.
        let mut scratch = vec![0usize; 3];
        let queue = ClaimQueue::new();
        for round in 1..=2 {
            let before = parallel_regions();
            let out = region(&mut scratch, |w, seen| {
                w.map_claimed(&queue, 50, |i| {
                    *seen += 1;
                    i
                })
            });
            assert_eq!(out, (0..50).collect::<Vec<_>>());
            assert_eq!(scratch.iter().sum::<usize>(), 50 * round);
            assert!(parallel_regions() > before);
        }
    }

    #[test]
    fn thread_count_prefers_request_over_detection() {
        // Skip when the environment pins the count (e.g. a TC_THREADS=1 CI
        // run) — the override must win.
        if std::env::var(THREADS_ENV).is_ok() {
            assert_eq!(thread_count(3), thread_count(7));
            return;
        }
        assert_eq!(thread_count(3), 3);
        assert!(thread_count(0) >= 1);
    }
}
