//! `saccs-rt` — a scoped work-stealing thread pool (stdlib only).
//!
//! Every parallel region in the workspace goes through this crate; raw
//! `std::thread::spawn` in library code is rejected by the
//! `no-spawn-outside-rt` xtask lint. The pool is process-global and
//! lazy: the first parallel call spawns `SACCS_THREADS - 1` persistent
//! workers (default: `std::thread::available_parallelism`), each owning
//! a deque it pops LIFO and others steal FIFO, plus a shared injector
//! for submissions from non-pool threads. The calling thread always
//! participates — while a [`scope`] waits it drains queued tasks — so
//! correctness never depends on workers existing and `SACCS_THREADS=1`
//! runs everything inline with zero queue traffic.
//!
//! **Determinism contract**: the pool makes no ordering promises between
//! tasks, so callers must keep results independent of interleaving. The
//! workspace does this in two ways: (1) tasks write disjoint output
//! ranges whose values are pure functions of the inputs (matmul row
//! blocks, per-tag postings, encoded sentences), and (2) any reduction
//! over task results runs after the parallel phase, in index order.
//! Under that contract every result is bitwise identical at any thread
//! count — see DESIGN.md §9 and the cross-thread-count tests in `nn`,
//! `tagger`, `embed` and `index`.
//!
//! The pool size is exported as the `rt.pool.threads` gauge via
//! `saccs-obs` whenever it changes.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Hard cap on pool workers; `SACCS_THREADS` is clamped to this.
pub const MAX_THREADS: usize = 64;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Fan-out width override installed by [`set_threads`] (0 = none).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The pool width this process would configure from the environment:
/// `SACCS_THREADS` if set (clamped to `1..=MAX_THREADS`), otherwise the
/// machine's available parallelism. Read once at first use.
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("SACCS_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, MAX_THREADS)
    })
}

/// Current fan-out width: the [`set_threads`] override if one is
/// installed, otherwise the configured (`SACCS_THREADS`/cores) width.
pub fn threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => configured_threads(),
        n => n,
    }
}

/// Override the fan-out width in-process (test/bench hook).
///
/// Grows the worker set if needed so `n`-wide scopes actually run on
/// `n` threads; never shrinks it — narrowing only changes how many
/// chunks [`parallel_for_chunks`] and friends cut, which is exactly
/// what the cross-thread-count determinism tests exercise. Concurrent
/// callers race on the single global override, so tests serialize on a
/// lock around it.
pub fn set_threads(n: usize) {
    let n = n.clamp(1, MAX_THREADS);
    OVERRIDE.store(n, Ordering::Relaxed);
    if n > 1 {
        pool().ensure_workers(n - 1);
    }
    export_pool_gauge();
}

fn export_pool_gauge() {
    saccs_obs::registry()
        .gauge("rt.pool.threads")
        .set(threads() as f64);
}

thread_local! {
    /// Index of this thread's own deque when it is a pool worker.
    static WORKER_QUEUE: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Pool {
    /// `queues[0]` is the injector; `queues[1..]` are worker deques.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Count of queued-but-unclaimed tasks across all queues.
    ready: AtomicUsize,
    /// Parking lot for idle workers; pushers take this lock empty to
    /// close the check-then-wait race before notifying.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Workers actually spawned so far (grown lazily, never shrunk).
    spawned: AtomicUsize,
    /// Serializes worker spawning.
    grow: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = Pool {
            queues: (0..=MAX_THREADS)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            ready: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            spawned: AtomicUsize::new(0),
            grow: Mutex::new(()),
        };
        export_pool_gauge();
        pool
    })
}

/// Recover the guard from a poisoned mutex: pool state is only queues of
/// not-yet-started tasks, which stay consistent across a panic (task
/// panics are caught before they can unwind through a held lock).
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

impl Pool {
    fn has_workers(&self) -> bool {
        self.spawned.load(Ordering::Relaxed) > 0
    }

    /// Spawn workers until at least `n` exist (capped at `MAX_THREADS`).
    fn ensure_workers(&'static self, n: usize) {
        let n = n.min(MAX_THREADS);
        if self.spawned.load(Ordering::Acquire) >= n {
            return;
        }
        let _g = relock(self.grow.lock());
        while self.spawned.load(Ordering::Acquire) < n {
            let id = self.spawned.load(Ordering::Acquire);
            let builder = std::thread::Builder::new().name(format!("saccs-rt-{id}"));
            // Worker threads are detached and live for the process.
            let spawned = builder.spawn(move || self.worker_loop(id));
            match spawned {
                Ok(_) => {
                    self.spawned.fetch_add(1, Ordering::Release);
                }
                Err(_) => break, // out of threads: callers still make progress inline
            }
        }
    }

    fn worker_loop(&'static self, id: usize) {
        WORKER_QUEUE.with(|w| w.set(Some(id + 1)));
        loop {
            if let Some(task) = self.try_pop(id + 1) {
                task();
                continue;
            }
            let guard = relock(self.sleep.lock());
            if self.ready.load(Ordering::Acquire) > 0 {
                continue; // re-race for the task instead of sleeping
            }
            // Timeout is belt-and-braces; pushers notify under `sleep`.
            let _ = self.wake.wait_timeout(guard, Duration::from_millis(100));
        }
    }

    /// Pop a task: own deque LIFO first (cache-warm), then the injector,
    /// then steal FIFO from the other workers, scanning from `home`.
    fn try_pop(&self, home: usize) -> Option<Task> {
        if self.ready.load(Ordering::Acquire) == 0 {
            return None;
        }
        if let Some(t) = self.pop_back(home) {
            return Some(t);
        }
        let live = self.spawned.load(Ordering::Acquire) + 1;
        for i in 0..live {
            let q = (home + i) % live;
            if q == home {
                continue;
            }
            if let Some(t) = self.pop_front(q) {
                return Some(t);
            }
        }
        None
    }

    fn pop_back(&self, q: usize) -> Option<Task> {
        let t = relock(self.queues[q].lock()).pop_back();
        if t.is_some() {
            self.ready.fetch_sub(1, Ordering::AcqRel);
        }
        t
    }

    fn pop_front(&self, q: usize) -> Option<Task> {
        let t = relock(self.queues[q].lock()).pop_front();
        if t.is_some() {
            self.ready.fetch_sub(1, Ordering::AcqRel);
        }
        t
    }

    /// Queue a task on the current worker's deque (or the injector from
    /// non-pool threads) and wake one sleeper.
    fn push(&self, task: Task) {
        let q = WORKER_QUEUE.with(|w| w.get()).unwrap_or(0);
        relock(self.queues[q].lock()).push_back(task);
        self.ready.fetch_add(1, Ordering::AcqRel);
        // Empty critical section: a worker past its ready-check is
        // guaranteed to be inside wait() once we hold `sleep`.
        drop(relock(self.sleep.lock()));
        self.wake.notify_one();
    }
}

/// Bookkeeping shared by a [`scope`] and its spawned tasks.
struct ScopeState {
    pending: AtomicUsize,
    /// First panic payload from any task; re-raised when the scope ends.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    done: Mutex<()>,
    all_done: Condvar,
}

impl ScopeState {
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send + 'static>) {
        let mut slot = relock(self.panic.lock());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(relock(self.done.lock()));
            self.all_done.notify_all();
        }
    }
}

/// Handle for spawning borrowing tasks; created by [`scope`].
pub struct Scope<'env> {
    pool: &'static Pool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, mirroring `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Run `f` on the pool. The closure may borrow from the environment
    /// of the enclosing [`scope`] call; a panic inside it is captured
    /// and re-raised on the scope's caller after all tasks finish.
    ///
    /// With no workers spawned (the `SACCS_THREADS=1` fast path) the
    /// task runs inline, so single-threaded configs pay no queue or
    /// wakeup traffic at all.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        // Capture the caller's request-trace context (one relaxed load
        // when tracing is off) so pool workers attribute their work to
        // the owning request for the task's duration.
        let trace = saccs_obs::trace::propagated();
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _trace_scope = trace.map(saccs_obs::trace::install);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.record_panic(payload);
            }
            state.complete_one();
        });
        // SAFETY: `scope` blocks until `pending` drops to zero before
        // returning, so the task (and everything it borrows from `'env`)
        // cannot outlive the borrowed environment. The lifetime is
        // erased only to store the task in the process-global queues.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
        if self.pool.has_workers() {
            self.pool.push(task);
        } else {
            task();
        }
    }

    /// Block until every spawned task has completed, executing queued
    /// tasks on this thread while waiting.
    fn wait(&self) {
        let home = WORKER_QUEUE.with(|w| w.get()).unwrap_or(0);
        while self.state.pending.load(Ordering::Acquire) > 0 {
            if let Some(task) = self.pool.try_pop(home) {
                task();
                continue;
            }
            let guard = relock(self.state.done.lock());
            if self.state.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            // Timeout bounds the window of the (already handshaked)
            // completion race; normally the condvar fires first.
            let _ = self
                .state
                .all_done
                .wait_timeout(guard, Duration::from_millis(1));
        }
    }
}

/// Run `f` with a [`Scope`] whose tasks may borrow from the caller's
/// stack. Returns `f`'s value after every spawned task has completed;
/// the calling thread helps execute queued tasks while it waits (which
/// is what makes nested scopes on worker threads deadlock-free). If any
/// task panicked, the first payload is re-raised here.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    if threads() > 1 {
        pool().ensure_workers(threads() - 1);
    }
    let scope = Scope {
        pool: pool(),
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(()),
            all_done: Condvar::new(),
        }),
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    scope.wait();
    let task_panic = relock(scope.state.panic.lock()).take();
    match (result, task_panic) {
        // A task panic wins over the closure's own result or panic: the
        // closure usually only spawns, so the task payload is the root
        // cause.
        (_, Some(payload)) => resume_unwind(payload),
        (Err(payload), None) => resume_unwind(payload),
        (Ok(r), None) => r,
    }
}

/// Run `a` and `b` potentially in parallel and return both results.
/// `a` goes to the pool, `b` runs on the calling thread.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
{
    let mut ra: Option<RA> = None;
    let rb = {
        let slot = &mut ra;
        scope(|s| {
            s.spawn(move || *slot = Some(a()));
            b()
        })
    };
    // `scope` re-raises if `a` panicked, so the slot is always filled.
    let ra = ra.unwrap_or_else(|| unreachable!("join: task completed without a result"));
    (ra, rb)
}

/// Split `data` into contiguous chunks of `chunk` elements (the last one
/// may be shorter) and run `f(chunk_index, chunk)` for each, in parallel
/// when the pool is wider than one thread. Chunk *contents* for a given
/// index are identical at any width, so callers whose `f` writes a pure
/// function of the chunk get thread-count-independent results only if
/// they also pick `chunk` independently of [`threads`] — otherwise the
/// per-chunk values must be boundary-independent (as in matmul row
/// blocks).
pub fn parallel_for_chunks<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    if threads() == 1 || data.len() <= chunk {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    scope(|s| {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(i, c));
        }
    });
}

/// Evaluate `f(0), …, f(n-1)` (in parallel above `min_per_task` items
/// per thread) and collect the results in index order. The output is
/// positionally deterministic regardless of scheduling.
pub fn parallel_map<R, F>(n: usize, min_per_task: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads().max(1)).max(min_per_task.max(1));
    parallel_for_chunks(&mut out, chunk, |ci, slots| {
        let base = ci * chunk;
        for (j, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(base + j));
        }
    });
    out.into_iter()
        .map(|o| o.unwrap_or_else(|| unreachable!("parallel_map: unfilled slot")))
        .collect()
}

/// Spawn a dedicated, long-lived OS thread *outside* the work-stealing
/// pool, named `saccs-<name>`.
///
/// Pool tasks must never block indefinitely (a parked pool worker
/// starves every other scope), so components that wait on external
/// events — a serving front end's request-queue workers, most notably —
/// get their own threads through this function instead. It is the one
/// sanctioned escape hatch from the `no-spawn-outside-rt` lint: the
/// thread is still created by `saccs-rt`, keeping thread provenance in
/// one crate.
///
/// Panics if the OS refuses to spawn a thread — callers create a small,
/// fixed number of workers at startup, where failing loudly beats
/// serving with a silently missing worker.
pub fn spawn_worker<F>(name: &str, f: F) -> std::thread::JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("saccs-{name}"))
        .spawn(f)
        .unwrap_or_else(|e| panic!("failed to spawn worker thread `saccs-{name}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that touch the global width override.
    static WIDTH_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn scope_runs_borrowing_tasks() {
        let _g = relock(WIDTH_LOCK.lock());
        set_threads(4);
        let mut parts = vec![0u64; 8];
        scope(|s| {
            for (i, p) in parts.iter_mut().enumerate() {
                s.spawn(move || *p = (i as u64 + 1) * 10);
            }
        });
        assert_eq!(parts, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn join_returns_both_results() {
        let _g = relock(WIDTH_LOCK.lock());
        set_threads(2);
        let (a, b) = join(|| 6 * 7, || "right");
        assert_eq!((a, b), (42, "right"));
    }

    #[test]
    fn pool_workers_adopt_the_callers_trace_context() {
        let _g = relock(WIDTH_LOCK.lock());
        set_threads(8);
        let ctx = saccs_obs::trace::TraceContext::new(123);
        let _scope = saccs_obs::trace::install(Arc::clone(&ctx));
        // Tasks fan out across pool workers; each records into the
        // caller's context (installed for the task's duration) — all 64
        // probes land in the one per-request buffer.
        let out = parallel_map(64, 1, |i| {
            saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Probe { exact: i % 2 == 0 });
            saccs_obs::trace::current().map(|c| c.id())
        });
        assert!(out.iter().all(|id| *id == Some(123)));
        let events = ctx.events();
        assert_eq!(events.len(), 64);
        // Worker threads must not keep the context after the task ends:
        // run an untraced fan-out and check nothing more is recorded.
        drop(_scope);
        parallel_map(16, 1, |_| {
            saccs_obs::trace::record(saccs_obs::trace::TraceEvent::Shed);
        });
        assert_eq!(ctx.events().len(), 64);
    }

    #[test]
    fn parallel_map_is_positional() {
        let _g = relock(WIDTH_LOCK.lock());
        set_threads(8);
        let out = parallel_map(100, 1, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn inline_when_single_threaded() {
        let _g = relock(WIDTH_LOCK.lock());
        set_threads(1);
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        scope(|s| {
            let seen = &mut seen;
            s.spawn(move || seen.push(std::thread::current().id()));
        });
        // With width 1 and no prior pool use the task runs inline; once
        // workers exist (other tests grow the pool) it may not, so only
        // assert the task ran exactly once.
        assert_eq!(seen.len(), 1);
        let _ = caller;
        set_threads(4);
    }

    #[test]
    fn chunk_results_cover_all_elements() {
        let _g = relock(WIDTH_LOCK.lock());
        set_threads(3);
        let mut data = vec![1u32; 1000];
        parallel_for_chunks(&mut data, 7, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v += ci as u32;
            }
        });
        let expect: Vec<u32> = (0..1000).map(|i| 1 + (i / 7) as u32).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn many_small_scopes_do_not_leak_pending() {
        let _g = relock(WIDTH_LOCK.lock());
        set_threads(4);
        let hits = AtomicU64::new(0);
        for _ in 0..200 {
            scope(|s| {
                for _ in 0..4 {
                    let hits = &hits;
                    s.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn pool_gauge_tracks_width() {
        let _g = relock(WIDTH_LOCK.lock());
        set_threads(5);
        let gauge = saccs_obs::registry().gauge("rt.pool.threads").get();
        assert_eq!(gauge, 5.0);
        set_threads(4);
    }
}
