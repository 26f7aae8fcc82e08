//! Parallel experiment engine: a std-only worker pool over one shared
//! FIFO job queue.
//!
//! The evaluation harness replays every table and figure of the paper
//! across (workload-mix × budget × island-count) grids; the cells are
//! independent simulations, so the sweep is embarrassingly parallel. This
//! crate supplies the execution substrate without pulling in any external
//! dependency:
//!
//! * [`Pool`] — a persistent pool of worker threads sharing one
//!   mutex-guarded FIFO queue. An idle worker takes the oldest job, so
//!   imbalanced cells (a 32-core simulation next to an 8-core one) still
//!   keep every worker busy. Sweep cells take milliseconds each, so one
//!   queue lock is never the bottleneck.
//! * [`Pool::parallel_map`] — the deterministic fan-out/fan-in primitive:
//!   results land in input order, so reductions are bit-identical no
//!   matter how many workers ran the cells or in what order they
//!   finished. Callers *help execute* queued jobs while they wait, which
//!   makes nested `parallel_map` calls deadlock-free (an experiment job
//!   can fan out its own cells on the same pool).
//!
//! The worker count comes from the `CPM_WORKERS` environment variable
//! (default: all hardware threads). `CPM_WORKERS=1` runs every job inline
//! on the caller's thread — the exact serial semantics the determinism
//! gate in CI diffs against.
//!
//! Determinism contract: a job must derive all randomness from its own
//! input (see `cpm-rng`'s child streams) and must not read global mutable
//! state. Under that contract, `parallel_map(items, f)[i] == f(items[i])`
//! holds for every worker count by construction.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send>;

/// Locks `m`, recovering a poisoned lock instead of propagating the
/// panic. Every mutex here guards either the job queue or a result slot;
/// a panicking job is already trapped by `catch_unwind` and re-raised on
/// the collecting caller, so the guarded data is never left half-written
/// and later callers must not be wedged by the poison flag.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Distinguishes pools so a thread's home context can't be misread by a
/// different pool (a worker of pool A helping on pool B is a *caller*
/// there, not worker `i`).
static POOL_IDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(pool id, context index)` this thread belongs to; workers set it
    /// once at startup. Other threads fall back to the caller slot.
    static HOME: Cell<(u64, usize)> = const { Cell::new((u64::MAX, usize::MAX)) };
    /// Job-nesting depth on this thread. Only depth-0 jobs accrue busy
    /// time: a job that fans out its own cells and helps execute them
    /// already owns that wall-clock, so counting the nested cells again
    /// would double-book it.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Per-worker counters, updated by whichever thread executes a job.
#[derive(Debug, Default)]
struct WorkerCounters {
    jobs: AtomicU64,
    busy_nanos: AtomicU64,
}

/// A snapshot of one execution context's accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSnapshot {
    /// Jobs this context executed (nested cells included).
    pub jobs: u64,
    /// Wall-clock spent inside top-level job bodies. Cells a job executes
    /// while helping a nested fan-out are *not* added again — the
    /// enclosing job's time already covers them — so `busy` never exceeds
    /// the context's lifetime.
    pub busy: Duration,
}

/// Pool-wide utilization snapshot (workers plus one synthetic "caller"
/// slot for jobs executed by threads helping from `parallel_map`).
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Configured worker-thread count (0 in serial mode).
    pub workers: usize,
    /// Wall-clock since the pool started.
    pub elapsed: Duration,
    /// Accounting per context; `per_context[workers]` is the caller slot.
    pub per_context: Vec<WorkerSnapshot>,
}

impl PoolStats {
    /// Fraction of a context's lifetime spent executing jobs.
    pub fn utilization(&self, context: usize) -> f64 {
        let e = self.elapsed.as_secs_f64();
        if e <= 0.0 {
            return 0.0;
        }
        self.per_context[context].busy.as_secs_f64() / e
    }

    /// Total jobs executed across all contexts.
    pub fn total_jobs(&self) -> u64 {
        self.per_context.iter().map(|c| c.jobs).sum()
    }

    /// The lowest per-context utilization — the load-balance floor. A
    /// healthy pool keeps this near the siblings' figure; a context left
    /// idle by skewed injection drags it down.
    pub fn utilization_min(&self) -> f64 {
        (0..self.per_context.len())
            .map(|k| self.utilization(k))
            .fold(f64::INFINITY, f64::min)
    }

    /// Publishes this snapshot onto a `cpm-obs` metrics registry,
    /// replacing the ad-hoc jobs/busy plumbing callers used to
    /// hand-roll. Snapshot values land on **gauges** (set, not add), so
    /// re-exporting after more work simply refreshes them. The last
    /// per-context slot is the synthetic caller context.
    pub fn export(&self, registry: &cpm_obs::Registry) {
        registry.gauge("pool.workers").set(self.workers as f64);
        registry
            .gauge("pool.elapsed_seconds")
            .set(self.elapsed.as_secs_f64());
        registry
            .gauge("pool.jobs_total")
            .set(self.total_jobs() as f64);
        registry
            .gauge("pool.utilization_min")
            .set(self.utilization_min());
        for (k, c) in self.per_context.iter().enumerate() {
            let name = if k == self.per_context.len() - 1 {
                "caller".to_string()
            } else {
                format!("worker{k}")
            };
            registry
                .gauge(&format!("pool.{name}.jobs"))
                .set(c.jobs as f64);
            registry
                .gauge(&format!("pool.{name}.busy_seconds"))
                .set(c.busy.as_secs_f64());
            registry
                .gauge(&format!("pool.{name}.utilization"))
                .set(self.utilization(k));
        }
    }
}

struct PoolInner {
    id: u64,
    queue: Mutex<VecDeque<Job>>,
    signal: Condvar,
    /// Cleared (under the queue lock, so no parked worker misses it) when
    /// the pool drops.
    live: AtomicBool,
    counters: Vec<WorkerCounters>,
    started: Instant,
}

impl PoolInner {
    /// The accounting context of the current thread *on this pool*: a
    /// worker's own slot on its home pool, the shared caller slot for
    /// every other thread.
    fn context(&self) -> usize {
        let (pool, ctx) = HOME.with(Cell::get);
        if pool == self.id {
            ctx
        } else {
            self.counters.len() - 1
        }
    }

    fn push(&self, job: Job) {
        lock_recover(&self.queue).push_back(job);
        self.signal.notify_one();
    }

    fn pop(&self) -> Option<Job> {
        lock_recover(&self.queue).pop_front()
    }

    /// Runs `body` with job/busy accounting on `context`; busy time
    /// accrues only at nesting depth 0 (see [`DEPTH`]).
    fn run_counted<R>(&self, context: usize, body: impl FnOnce() -> R) -> R {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let t0 = Instant::now();
        let r = body();
        DEPTH.with(|d| d.set(depth));
        let c = &self.counters[context];
        c.jobs.fetch_add(1, Ordering::Relaxed);
        if depth == 0 {
            c.busy_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        r
    }

    fn worker_loop(&self, id: usize) {
        HOME.with(|h| h.set((self.id, id)));
        let mut queue = lock_recover(&self.queue);
        loop {
            if let Some(job) = queue.pop_front() {
                drop(queue);
                self.run_counted(id, job);
                queue = lock_recover(&self.queue);
            } else if !self.live.load(Ordering::Acquire) {
                return;
            } else {
                queue = self
                    .signal
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// A worker pool over one FIFO job queue. See the crate docs for the
/// execution model; `Pool::new(1)` (or fewer) creates a **serial** pool
/// that runs every job inline on the calling thread.
pub struct Pool {
    inner: Arc<PoolInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl Pool {
    /// Creates a pool with `workers` worker threads (clamped to ≥ 1;
    /// 1 means serial/inline execution with no threads spawned).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let thread_count = if workers == 1 { 0 } else { workers };
        let inner = Arc::new(PoolInner {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            queue: Mutex::new(VecDeque::new()),
            signal: Condvar::new(),
            live: AtomicBool::new(true),
            // One counter slot per worker plus the caller slot.
            counters: (0..thread_count + 1)
                .map(|_| WorkerCounters::default())
                .collect(),
            started: Instant::now(),
        });
        let threads = (0..thread_count)
            .map(|id| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cpm-worker-{id}"))
                    .spawn(move || inner.worker_loop(id))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            inner,
            threads,
            workers,
        }
    }

    /// The configured degree of parallelism (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The process-wide pool, sized by `CPM_WORKERS` (default: available
    /// hardware parallelism) at first use.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(workers_from_env()))
    }

    /// Maps `f` over `items` on the pool, returning results in **input
    /// order**. The calling thread helps execute queued jobs while it
    /// waits, so nested calls from inside a job are deadlock-free.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        // Serial pool, or nothing to overlap: run inline, still through
        // the accounting path so stats stay meaningful.
        if self.workers == 1 || n == 1 {
            let ctx = self.inner.context();
            return items
                .into_iter()
                .map(|item| self.inner.run_counted(ctx, || f(item)))
                .collect();
        }

        type Slot<R> = Option<std::thread::Result<R>>;
        let f = Arc::new(f);
        let results: Arc<Mutex<Vec<Slot<R>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let remaining = Arc::new(AtomicUsize::new(n));
        for (i, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let results = Arc::clone(&results);
            let remaining = Arc::clone(&remaining);
            self.inner.push(Box::new(move || {
                // Trap panics so a failing cell neither kills its worker
                // thread nor strands the waiting caller; the panic is
                // re-raised on the caller's thread at collection time.
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
                lock_recover(&results)[i] = Some(r);
                remaining.fetch_sub(1, Ordering::AcqRel);
            }));
        }
        // Help until every slot of *this* call is filled. Helping may pick
        // up unrelated jobs (other callers' cells); that only means this
        // thread does useful work instead of spinning. A worker helping a
        // nested fan-out accounts on its own slot, not the caller slot.
        let ctx = self.inner.context();
        while remaining.load(Ordering::Acquire) > 0 {
            match self.inner.pop() {
                Some(job) => self.inner.run_counted(ctx, job),
                None => std::thread::yield_now(),
            }
        }
        let mut slots = lock_recover(&results);
        slots
            .iter_mut()
            .map(|s| match s.take().expect("every job filled its slot") {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }

    /// Runs a batch of heterogeneous closures, returning their results in
    /// input order.
    pub fn run_jobs<R: Send + 'static>(&self, jobs: Vec<Box<dyn FnOnce() -> R + Send>>) -> Vec<R> {
        // FnOnce can't go through Fn-based parallel_map; wrap each job in
        // an Option and take it exactly once.
        type OnceJob<R> = Box<dyn FnOnce() -> R + Send>;
        let jobs: Vec<Mutex<Option<OnceJob<R>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        self.parallel_map((0..jobs.len()).collect::<Vec<_>>(), move |i| {
            let job = lock_recover(&jobs[i]).take().expect("job taken once");
            job()
        })
    }

    /// Utilization snapshot since the pool started.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.threads.len(),
            elapsed: self.inner.started.elapsed(),
            per_context: self
                .inner
                .counters
                .iter()
                .map(|c| WorkerSnapshot {
                    jobs: c.jobs.load(Ordering::Relaxed),
                    busy: Duration::from_nanos(c.busy_nanos.load(Ordering::Relaxed)),
                })
                .collect(),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let _queue = lock_recover(&self.inner.queue);
            self.inner.live.store(false, Ordering::Release);
        }
        self.inner.signal.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Degree of parallelism requested via `CPM_WORKERS`, defaulting to the
/// machine's available parallelism. Invalid or zero values fall back to
/// the default.
pub fn workers_from_env() -> usize {
    std::env::var("CPM_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// `parallel_map` on the global pool.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    Pool::global().parallel_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let pool = Pool::new(4);
        let out = pool.parallel_map((0..257u64).collect(), |x| x * x);
        assert_eq!(out, (0..257u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |x: u64| {
            // Unequal cell costs finish out of queue order.
            let spins = (x % 7) * 1000;
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial = Pool::new(1).parallel_map((0..200u64).collect(), work);
        let parallel = Pool::new(4).parallel_map((0..200u64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_parallel_map_does_not_deadlock() {
        let pool = Arc::new(Pool::new(2));
        let p2 = Arc::clone(&pool);
        let out = pool.parallel_map((0..8u64).collect(), move |outer| {
            p2.parallel_map((0..8u64).collect(), move |inner| outer * 10 + inner)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..8u64)
            .map(|o| (0..8).map(|i| o * 10 + i).sum())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn run_jobs_handles_heterogeneous_closures() {
        let pool = Pool::new(3);
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "a".to_string()),
            Box::new(|| format!("{}", 6 * 7)),
            Box::new(|| "c".repeat(3)),
        ];
        assert_eq!(pool.run_jobs(jobs), vec!["a", "42", "ccc"]);
    }

    #[test]
    fn stats_account_for_every_job() {
        let pool = Pool::new(3);
        pool.parallel_map((0..100u32).collect(), |x| x + 1);
        let stats = pool.stats();
        assert_eq!(stats.total_jobs(), 100);
        assert_eq!(stats.per_context.len(), 4); // 3 workers + caller
    }

    #[test]
    fn serial_pool_spawns_no_threads_and_still_accounts() {
        let pool = Pool::new(1);
        let out = pool.parallel_map(vec![1, 2, 3], |x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        let stats = pool.stats();
        assert_eq!(stats.workers, 0);
        assert_eq!(stats.total_jobs(), 3);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = Pool::new(2);
        let out: Vec<u32> = pool.parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = Pool::new(4);
        pool.parallel_map((0..10u32).collect(), |x| x);
        drop(pool); // must not hang
    }

    #[test]
    fn panics_in_jobs_propagate_not_hang() {
        // A panicking cell must neither kill its worker thread nor strand
        // the waiting caller: the captured payload re-raises verbatim via
        // `resume_unwind` at collection time (so a failing sweep cell
        // surfaces its real message, not a generic one) and the pool
        // keeps working afterwards.
        let pool = Pool::new(3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_map((0..16u32).collect(), |x| {
                if x == 7 {
                    panic!("cell 7 diverged: budget {} W unsatisfiable", 80);
                }
                x
            });
        }));
        let payload = r.expect_err("the cell's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(
            msg, "cell 7 diverged: budget 80 W unsatisfiable",
            "the original payload must survive propagation untouched"
        );
        // Pool survives and still executes jobs correctly.
        assert_eq!(pool.parallel_map(vec![1u32, 2], |x| x + 1), vec![2, 3]);
    }

    #[test]
    fn panicking_job_does_not_wedge_the_queue_lock() {
        // Even after a cell panics, the queue and result mutexes stay
        // usable: the pool's lock discipline recovers poisoned locks
        // instead of unwrapping, so later sweeps proceed normally.
        let pool = Pool::new(2);
        for round in 0..3 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.parallel_map((0..8u32).collect(), |x| {
                    if x == 3 {
                        panic!("round failure");
                    }
                    x * 2
                });
            }));
            assert!(r.is_err(), "round {round} must propagate the panic");
            let ok = pool.parallel_map((0..8u32).collect(), |x| x * 2);
            assert_eq!(ok, (0..8u32).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_helping_does_not_double_count_busy() {
        let pool = Arc::new(Pool::new(2));
        let p2 = Arc::clone(&pool);
        pool.parallel_map((0..6u64).collect(), move |outer| {
            p2.parallel_map((0..6u64).collect(), move |inner| {
                let mut acc = outer * 10 + inner;
                for _ in 0..20_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            })
            .len()
        });
        let stats = pool.stats();
        // Every context is a single thread, and nested cells don't accrue
        // busy on top of their enclosing job — so busy can't exceed the
        // pool's lifetime (small slop for clock-read ordering).
        let elapsed = stats.elapsed.as_secs_f64();
        for (k, c) in stats.per_context.iter().enumerate() {
            assert!(
                c.busy.as_secs_f64() <= elapsed * 1.05 + 0.001,
                "context {k} busy {:?} exceeds pool lifetime {:?}",
                c.busy,
                stats.elapsed
            );
        }
        assert_eq!(stats.total_jobs(), 6 + 36);
    }

    #[test]
    fn export_metrics_publishes_pool_gauges() {
        let pool = Pool::new(2);
        pool.parallel_map((0..40u32).collect(), |x| x + 1);
        let registry = cpm_obs::Registry::new();
        pool.stats().export(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["pool.jobs_total"], 40.0);
        assert_eq!(snap.gauges["pool.workers"], 2.0);
        // 2 workers + caller slot, 3 gauges each, plus 4 pool-wide ones.
        assert_eq!(snap.gauges.len(), 4 + 3 * 3);
        assert!(snap.gauges.contains_key("pool.caller.busy_seconds"));
        assert!(snap.gauges.contains_key("pool.worker1.utilization"));
        let util_min = snap.gauges["pool.utilization_min"];
        let utils = [
            snap.gauges["pool.worker0.utilization"],
            snap.gauges["pool.worker1.utilization"],
            snap.gauges["pool.caller.utilization"],
        ];
        let expect = utils.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(util_min, expect, "utilization_min must be the floor");
        // Re-export refreshes rather than double-counts.
        pool.parallel_map((0..10u32).collect(), |x| x);
        pool.stats().export(&registry);
        assert_eq!(registry.snapshot().gauges["pool.jobs_total"], 50.0);
    }

    #[test]
    fn workers_from_env_parses_and_falls_back() {
        // Can't mutate the environment safely in-process across tests;
        // just assert the default path yields something sane.
        assert!(workers_from_env() >= 1);
    }
}
