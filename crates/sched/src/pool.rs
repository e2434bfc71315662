//! The work-stealing thread pool.
//!
//! Workers own a LIFO [`crossbeam_deque::Worker`] deque each; tasks spawned
//! from within a task are pushed onto the spawning worker's deque (so a
//! single busy worker executes its own tasks in depth-first order), while
//! idle workers steal from the other end (FIFO) or from the global injector —
//! the same discipline as Cilk/TBB, which is what the paper assumes of its
//! dynamic task-management system in §3.2.

use crate::metrics::{PoolMetrics, WorkerCounters};
use crossbeam_deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'static>;

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    counters: Vec<WorkerCounters>,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Workers currently without a job. Written only on a worker's
    /// idle↔busy transitions, so busy workers can poll it cheaply. A hint
    /// that publishes no other data, hence `Relaxed`. Padded onto a cache
    /// line of its own so these writes never invalidate the fields that
    /// `find_job` and `worker_loop` read on every iteration.
    idle: IdleCount,
}

/// An `AtomicUsize` alone on its cache line. `crossbeam_utils::CachePadded`
/// would do, but `pce-sched` keeps to `crossbeam-deque` and `parking_lot`.
#[repr(align(128))]
struct IdleCount(AtomicUsize);

impl Shared {
    fn notify_all(&self) {
        let _guard = self.sleep_lock.lock();
        self.wake.notify_all();
    }
}

/// Execution context handed to every task: identifies the worker running the
/// task and lets the task spawn further tasks onto that worker's local deque.
pub struct WorkerCtx<'a> {
    worker_id: usize,
    local: &'a Worker<Job>,
    shared: &'a Shared,
}

impl<'a> WorkerCtx<'a> {
    /// The id (0-based, `< num_threads`) of the worker executing this task.
    #[inline]
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// Number of workers in the pool.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.shared.stealers.len()
    }

    /// Number of workers of the pool that are currently looking for work.
    /// A cheap hint for splittable searches: hand work off only when some
    /// worker could take it. The count changes when a worker runs out of
    /// jobs and when it picks one up again, so it can lag briefly behind.
    #[inline]
    pub fn idle_workers(&self) -> usize {
        self.shared.idle.0.load(Ordering::Relaxed)
    }

    /// Spawns a task belonging to `scope` onto this worker's local deque.
    /// The task runs depth-first on this worker unless another worker steals
    /// it first.
    pub fn spawn<'scope, F>(&self, scope: &Scope<'scope>, f: F)
    where
        F: FnOnce(&Scope<'scope>, &WorkerCtx<'_>) + Send + 'scope,
    {
        let job = scope.make_job(f);
        self.local.push(job);
        self.shared.notify_all();
    }
}

/// Completion state of one scope. Kept behind an `Arc` that every job clones:
/// the final `complete_one` may still be touching this state *after* the
/// waiting thread has observed `pending == 0` and freed the `Scope` itself,
/// so it must not live in the scope's stack frame.
struct Completion {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Completion {
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done_lock.lock();
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut guard = self.done_lock.lock();
        while self.pending.load(Ordering::Acquire) != 0 {
            self.done_cv.wait_for(&mut guard, Duration::from_millis(1));
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A scope for submitting tasks that may borrow data living at least as long
/// as the scope. Created by [`ThreadPool::scope`]; the scope call returns only
/// after every spawned task (including transitively spawned ones) completed.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    completion: Arc<Completion>,
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    fn new(shared: Arc<Shared>) -> Self {
        Self {
            shared,
            completion: Arc::new(Completion {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
                done_lock: Mutex::new(()),
                done_cv: Condvar::new(),
            }),
            _marker: std::marker::PhantomData,
        }
    }

    /// Spawns a task onto the pool's global queue. Prefer
    /// [`WorkerCtx::spawn`] from inside a task so that nested tasks stay on
    /// the spawning worker unless stolen.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>, &WorkerCtx<'_>) + Send + 'scope,
    {
        let job = self.make_job(f);
        self.shared.injector.push(job);
        self.shared.notify_all();
    }

    /// Number of spawned-but-not-finished tasks (approximate; for tests and
    /// diagnostics).
    pub fn pending(&self) -> usize {
        self.completion.pending.load(Ordering::Acquire)
    }

    fn make_job<F>(&self, f: F) -> Job
    where
        F: FnOnce(&Scope<'scope>, &WorkerCtx<'_>) + Send + 'scope,
    {
        let completion = Arc::clone(&self.completion);
        completion.pending.fetch_add(1, Ordering::AcqRel);
        // SAFETY: the scope pointer is only dereferenced while this job is
        // still pending — `ThreadPool::scope` cannot return (and free the
        // `Scope` stack frame) before `completion.complete_one()` below has
        // run, so `self` and every `'scope` borrow captured by `f` outlive
        // the dereference. Everything the job touches *after* decrementing
        // `pending` lives in the `Arc<Completion>` it owns, never in the
        // scope's frame. The transmute only erases the `'scope` lifetime to
        // `'static` so the job can be stored in the deques.
        let scope_ptr = self as *const Scope<'scope> as usize;
        let wrapper = move |ctx: &WorkerCtx<'_>| {
            let scope: &Scope<'scope> = unsafe { &*(scope_ptr as *const Scope<'scope>) };
            let result = catch_unwind(AssertUnwindSafe(|| f(scope, ctx)));
            if let Err(payload) = result {
                completion.record_panic(payload);
            }
            completion.complete_one();
        };
        let boxed: Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'scope> = Box::new(wrapper);
        // SAFETY: see above — the job cannot outlive the scope.
        unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'scope>,
                Box<dyn FnOnce(&WorkerCtx<'_>) + Send + 'static>,
            >(boxed)
        }
    }

    fn wait(&self) {
        self.completion.wait();
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.completion.panic.lock().take()
    }
}

/// A fixed-size pool of worker threads with work-stealing deques.
///
/// # Example
/// ```
/// use pce_sched::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.scope(|scope| {
///     for i in 0..100usize {
///         let sum = &sum;
///         scope.spawn(move |_, _| {
///             sum.fetch_add(i, Ordering::Relaxed);
///         });
///     }
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 4950);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `num_threads` workers (clamped to at least 1).
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        let workers: Vec<Worker<Job>> = (0..num_threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Job>> = workers.iter().map(Worker::stealer).collect();
        let counters: Vec<WorkerCounters> = (0..num_threads)
            .map(|_| WorkerCounters::default())
            .collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            counters,
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            idle: IdleCount(AtomicUsize::new(0)),
        });

        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pce-worker-{index}"))
                    .spawn(move || worker_loop(index, local, shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();

        Self { shared, handles }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::new(crate::available_parallelism())
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.stealers.len()
    }

    /// Runs `f` with a [`Scope`] and blocks until every task spawned within
    /// the scope has completed. Panics from tasks are propagated (the first
    /// panic payload is re-raised on the calling thread).
    pub fn scope<'scope, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope::new(Arc::clone(&self.shared));
        let result = f(&scope);
        scope.wait();
        if let Some(payload) = scope.take_panic() {
            std::panic::resume_unwind(payload);
        }
        result
    }

    /// Snapshot of the per-worker metrics accumulated since the last
    /// [`ThreadPool::reset_metrics`] call.
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            workers: self.shared.counters.iter().map(|c| c.snapshot()).collect(),
        }
    }

    /// Resets every worker's metrics to zero.
    pub fn reset_metrics(&self) {
        for c in &self.shared.counters {
            c.reset();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(index: usize, local: Worker<Job>, shared: Arc<Shared>) {
    let backoff_limit = 64u32;
    let mut idle_spins = 0u32;
    let mut idle = false;
    loop {
        let (job, stolen) = match find_job(index, &local, &shared) {
            Some(pair) => pair,
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if !idle {
                    idle = true;
                    shared.idle.0.fetch_add(1, Ordering::Relaxed);
                }
                idle_spins += 1;
                if idle_spins < backoff_limit {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                } else {
                    let mut guard = shared.sleep_lock.lock();
                    // Re-check for work while holding the lock so we never
                    // miss a wake-up between the failed search and the wait.
                    if shared.injector.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
                        shared.wake.wait_for(&mut guard, Duration::from_millis(1));
                    }
                }
                continue;
            }
        };
        idle_spins = 0;
        if idle {
            idle = false;
            shared.idle.0.fetch_sub(1, Ordering::Relaxed);
        }
        let ctx = WorkerCtx {
            worker_id: index,
            local: &local,
            shared: &shared,
        };
        // Record the task before running it so that a scope that completes on
        // this very task already sees it counted; busy time is necessarily
        // recorded afterwards (and may therefore lag a completed scope by a
        // few nanoseconds, which the metrics consumers tolerate).
        let counters = &shared.counters[index];
        counters.record_task(stolen);
        let start = Instant::now();
        job(&ctx);
        counters.add_busy(start.elapsed().as_nanos() as u64);
    }
}

/// Finds the next job for worker `index`: local LIFO pop first, then the
/// global injector, then stealing from a sibling. Returns the job and whether
/// it was obtained by stealing (i.e. not from the local deque).
fn find_job(index: usize, local: &Worker<Job>, shared: &Shared) -> Option<(Job, bool)> {
    if let Some(job) = local.pop() {
        return Some((job, false));
    }
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            crossbeam_deque::Steal::Success(job) => return Some((job, true)),
            crossbeam_deque::Steal::Empty => break,
            crossbeam_deque::Steal::Retry => continue,
        }
    }
    let n = shared.stealers.len();
    for offset in 1..n {
        let victim = (index + offset) % n;
        loop {
            match shared.stealers[victim].steal() {
                crossbeam_deque::Steal::Success(job) => return Some((job, true)),
                crossbeam_deque::Steal::Empty => break,
                crossbeam_deque::Steal::Retry => continue,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..1000 {
                scope.spawn(|_, _| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(2);
        let data: Vec<usize> = (0..100).collect();
        let sum = AtomicUsize::new(0);
        pool.scope(|scope| {
            for chunk in data.chunks(10) {
                let sum = &sum;
                scope.spawn(move |_, _| {
                    sum.fetch_add(chunk.iter().sum::<usize>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), data.iter().sum::<usize>());
    }

    #[test]
    fn nested_spawns_run() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|scope, ctx| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..10 {
                        ctx.spawn(scope, |_, _| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 + 80);
    }

    #[test]
    fn deeply_nested_spawns_complete() {
        let pool = ThreadPool::new(3);
        let counter = AtomicUsize::new(0);
        fn recurse<'scope>(
            scope: &Scope<'scope>,
            ctx: &WorkerCtx<'_>,
            counter: &'scope AtomicUsize,
            depth: usize,
        ) {
            counter.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                for _ in 0..2 {
                    ctx.spawn(scope, move |scope, ctx| {
                        recurse(scope, ctx, counter, depth - 1)
                    });
                }
            }
        }
        pool.scope(|scope| {
            scope.spawn(|scope, ctx| recurse(scope, ctx, &counter, 6));
        });
        // A full binary recursion of depth 6 has 2^7 - 1 nodes.
        assert_eq!(counter.load(Ordering::Relaxed), 127);
    }

    #[test]
    fn single_threaded_pool_works() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.num_threads(), 1);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..50 {
                scope.spawn(|scope, ctx| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    ctx.spawn(scope, |_, _| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.num_threads(), 1);
    }

    #[test]
    fn scope_returns_value() {
        let pool = ThreadPool::new(2);
        let answer = pool.scope(|_| 42);
        assert_eq!(answer, 42);
    }

    #[test]
    fn sequential_scopes_reuse_the_pool() {
        let pool = ThreadPool::new(4);
        for round in 0..20 {
            let counter = AtomicUsize::new(0);
            pool.scope(|scope| {
                for _ in 0..round {
                    scope.spawn(|_, _| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), round);
        }
    }

    #[test]
    fn metrics_accumulate_and_reset() {
        let pool = ThreadPool::new(2);
        pool.scope(|scope| {
            for _ in 0..64 {
                scope.spawn(|_, _| {
                    std::hint::black_box((0..1000).sum::<u64>());
                });
            }
        });
        let m = pool.metrics();
        assert_eq!(m.total_tasks(), 64);
        assert!(m.total_busy_secs() > 0.0);
        pool.reset_metrics();
        assert_eq!(pool.metrics().total_tasks(), 0);
    }

    #[test]
    fn worker_ids_are_in_range() {
        let pool = ThreadPool::new(3);
        let seen = Mutex::new(std::collections::HashSet::new());
        pool.scope(|scope| {
            for _ in 0..300 {
                scope.spawn(|_, ctx| {
                    assert!(ctx.worker_id() < ctx.num_threads());
                    seen.lock().insert(ctx.worker_id());
                });
            }
        });
        assert!(!seen.lock().is_empty());
    }

    #[test]
    fn panics_propagate_to_scope_caller() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|_, _| panic!("task exploded"));
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic and remains usable.
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            scope.spawn(|_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn idle_workers_tracks_idle_and_busy_workers() {
        use std::sync::Barrier;
        let pool = ThreadPool::new(2);
        let both_running = Barrier::new(2);
        let checked = Barrier::new(2);
        pool.scope(|scope| {
            scope.spawn(|scope, ctx| {
                // Only this task exists, so the other worker runs out of jobs.
                let deadline = Instant::now() + Duration::from_secs(30);
                while ctx.idle_workers() != 1 {
                    assert!(
                        Instant::now() < deadline,
                        "the other worker never went idle"
                    );
                    std::thread::yield_now();
                }
                // This worker is blocked below, so the idle one must take the
                // second task; the barrier holds both tasks running.
                let (both_running, checked) = (&both_running, &checked);
                ctx.spawn(scope, move |_, _| {
                    both_running.wait();
                    checked.wait();
                });
                both_running.wait();
                assert_eq!(ctx.idle_workers(), 0);
                checked.wait();
            });
        });
    }

    #[test]
    fn heavy_mixed_load_completes() {
        let pool = ThreadPool::new(8);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for i in 0..200usize {
                let counter = &counter;
                scope.spawn(move |scope, ctx| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    if i % 3 == 0 {
                        for _ in 0..5 {
                            ctx.spawn(scope, move |_, _| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                });
            }
        });
        let expected = 200 + (0..200).filter(|i| i % 3 == 0).count() * 5;
        assert_eq!(counter.load(Ordering::Relaxed), expected);
    }
}
