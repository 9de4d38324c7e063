//! A persistent worker pool for per-cycle parallel phases.
//!
//! Spawning fresh scoped threads per call (as
//! [`sweep::run_parallel`](crate::sweep::run_parallel) does) is fine for
//! a handful of sweep points but ruinous inside a simulation cycle: a
//! network stepping a million cycles would pay thread creation and
//! teardown a million times. [`WorkerPool`] keeps its workers alive
//! across calls — threads are spawned once, park on a condvar between
//! rounds, and each [`WorkerPool::run`] call costs two lock handoffs per
//! worker instead of an OS thread spawn.
//!
//! The calling thread participates as worker 0, so a pool of `n` threads
//! spawns only `n - 1` OS threads and a single-threaded pool runs the job
//! inline with no synchronisation at all. `run` is a barrier: it returns
//! only after every worker has finished the round, which is exactly the
//! determinism point the sharded stepping engine hands flits across shard
//! boundaries at.
//!
//! # Examples
//!
//! ```
//! use noc_engine::pool::WorkerPool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = WorkerPool::new(4);
//! let hits = AtomicU64::new(0);
//! pool.run(&|worker| {
//!     hits.fetch_add(worker as u64 + 1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Type-erased borrow of the round's job. The pointer is only
/// dereferenced between the round being published and the worker's
/// completion being counted, and [`WorkerPool::run`] does not return
/// until every completion is in, so the borrow never outlives the
/// closure it points at.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared references may cross threads) and
// the pool's barrier protocol bounds every dereference within the
// lifetime of the `run` call that published the pointer.
unsafe impl Send for JobPtr {}

/// Shared pool state, guarded by one mutex.
struct State {
    /// Monotonic round counter; a bump publishes a new job.
    round: u64,
    /// The job for the current round.
    job: Option<JobPtr>,
    /// Spawned workers that have not yet finished the current round.
    remaining: usize,
    /// Set by drop: workers exit instead of waiting for another round.
    shutdown: bool,
    /// First panic payload raised by a worker this round.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between rounds.
    work_cv: Condvar,
    /// The caller parks here until `remaining` reaches zero.
    done_cv: Condvar,
    /// Opt-in wall-clock accounting. Every timer is a thread-local
    /// `Instant` whose elapsed duration is `fetch_add`ed into these cells,
    /// so no cross-thread clock values are ever compared — the counters
    /// are barrier-safe by construction. Off by default; the hot path pays
    /// one relaxed load per round when off.
    prof: Profiling,
}

/// Accumulated pool timing, all in nanoseconds.
struct Profiling {
    enabled: AtomicBool,
    /// Per-worker time spent inside the round's job.
    busy_ns: Vec<AtomicU64>,
    /// Caller time parked on `done_cv` after finishing its own share.
    barrier_wait_ns: AtomicU64,
    /// Caller wall time per `run` call, publish to barrier release.
    round_wall_ns: AtomicU64,
    /// Number of profiled rounds.
    rounds: AtomicU64,
}

/// Snapshot of a pool's accumulated timing, taken via
/// [`WorkerPool::profile`]. All durations are nanoseconds summed since
/// profiling was enabled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolProfile {
    /// Rounds executed while profiling was on.
    pub rounds: u64,
    /// Caller wall-clock across those rounds (publish to barrier release).
    pub round_wall_ns: u64,
    /// Caller time spent waiting on the barrier after its own share.
    pub barrier_wait_ns: u64,
    /// Per-worker busy time inside the job, indexed by worker id.
    pub busy_ns: Vec<u64>,
}

impl PoolProfile {
    /// Fraction of worker-seconds spent idle: 1 minus total busy time over
    /// `threads x round wall`. 0 when nothing was profiled.
    pub fn idle_fraction(&self) -> f64 {
        let capacity = self.round_wall_ns as f64 * self.busy_ns.len() as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: u64 = self.busy_ns.iter().sum();
        (1.0 - busy as f64 / capacity).max(0.0)
    }
}

/// A pool of persistent worker threads driving identical per-round jobs.
///
/// Created once, reused every cycle. See the [module docs](self) for the
/// protocol and an example.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` logical workers (the caller counts as
    /// worker 0, so `threads - 1` OS threads are spawned).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                round: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            prof: Profiling {
                enabled: AtomicBool::new(false),
                busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
                barrier_wait_ns: AtomicU64::new(0),
                round_wall_ns: AtomicU64::new(0),
                rounds: AtomicU64::new(0),
            },
        });
        let handles = (1..threads)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("noc-pool-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of logical workers (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Turns wall-clock profiling on or off. Enabling does not clear
    /// previously accumulated timing; use [`WorkerPool::reset_profile`]
    /// for a fresh measurement window.
    pub fn set_profiling(&self, on: bool) {
        self.shared.prof.enabled.store(on, Ordering::Relaxed);
    }

    /// Clears all accumulated profiling counters.
    pub fn reset_profile(&self) {
        let prof = &self.shared.prof;
        for cell in &prof.busy_ns {
            cell.store(0, Ordering::Relaxed);
        }
        prof.barrier_wait_ns.store(0, Ordering::Relaxed);
        prof.round_wall_ns.store(0, Ordering::Relaxed);
        prof.rounds.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the timing accumulated since profiling was enabled.
    /// Call between rounds (outside `run`) for consistent numbers.
    pub fn profile(&self) -> PoolProfile {
        let prof = &self.shared.prof;
        PoolProfile {
            rounds: prof.rounds.load(Ordering::Relaxed),
            round_wall_ns: prof.round_wall_ns.load(Ordering::Relaxed),
            barrier_wait_ns: prof.barrier_wait_ns.load(Ordering::Relaxed),
            busy_ns: prof
                .busy_ns
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Runs `job(worker)` once for every `worker` in `0..threads()`,
    /// worker 0 on the calling thread, and returns after **all** workers
    /// have finished — the call is a barrier.
    ///
    /// # Panics
    ///
    /// A panic in any worker (or in the caller's own share) is re-raised
    /// here with its original payload, after every other worker has
    /// finished the round.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let prof = &self.shared.prof;
        let profiling = prof.enabled.load(Ordering::Relaxed);
        let round_start = profiling.then(Instant::now);
        if self.threads == 1 {
            job(0);
            if let Some(t0) = round_start {
                let ns = t0.elapsed().as_nanos() as u64;
                prof.busy_ns[0].fetch_add(ns, Ordering::Relaxed);
                prof.round_wall_ns.fetch_add(ns, Ordering::Relaxed);
                prof.rounds.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        {
            let mut state = self.shared.state.lock().unwrap();
            debug_assert_eq!(state.remaining, 0, "overlapping pool rounds");
            // SAFETY: erases the borrow's lifetime so the fat pointer can
            // sit in the shared state; the barrier below keeps every
            // dereference inside this call's lifetime.
            let erased: *const (dyn Fn(usize) + Sync) =
                unsafe { std::mem::transmute(job as *const (dyn Fn(usize) + Sync)) };
            state.job = Some(JobPtr(erased));
            state.remaining = self.threads - 1;
            state.round += 1;
            self.shared.work_cv.notify_all();
        }
        // The caller takes its own share while the workers run theirs. A
        // caller panic must still wait for the round to finish (workers
        // hold the job borrow), so it is caught and re-raised after the
        // barrier.
        let own_start = profiling.then(Instant::now);
        let own = catch_unwind(AssertUnwindSafe(|| job(0)));
        let wait_start = own_start.map(|t0| {
            prof.busy_ns[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            Instant::now()
        });
        let worker_panic = {
            let mut state = self.shared.state.lock().unwrap();
            while state.remaining > 0 {
                state = self.shared.done_cv.wait(state).unwrap();
            }
            state.job = None;
            state.panic.take()
        };
        if let Some(t0) = wait_start {
            prof.barrier_wait_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if let Some(t0) = round_start {
            prof.round_wall_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            prof.rounds.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        if let Err(payload) = own {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked already recorded its payload; the
            // join error itself carries nothing new.
            let _ = handle.join();
        }
    }
}

/// Body of each spawned worker: wait for a round, run the job, count the
/// completion, repeat until shutdown.
fn worker_loop(shared: &Shared, worker: usize) {
    let mut seen_round = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if state.round != seen_round {
                    seen_round = state.round;
                    break;
                }
                state = shared.work_cv.wait(state).unwrap();
            }
            state.job.expect("published round carries a job")
        };
        let busy_start = shared
            .prof
            .enabled
            .load(Ordering::Relaxed)
            .then(Instant::now);
        // SAFETY: the caller blocks in `run` until this worker counts
        // its completion below, so the closure behind the pointer is
        // alive for the whole call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(worker) }));
        if let Some(t0) = busy_start {
            shared.prof.busy_ns[worker]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let mut state = shared.state.lock().unwrap();
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_exactly_once_per_round() {
        let pool = WorkerPool::new(4);
        let per_worker: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..100 {
            pool.run(&|w| {
                per_worker[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for counter in &per_worker {
            assert_eq!(counter.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicU64::new(0);
        pool.run(&|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_is_a_barrier() {
        // Disjoint writes from all workers must be visible right after
        // `run` returns, round after round.
        let pool = WorkerPool::new(3);
        let slots: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        for round in 1..50usize {
            pool.run(&|w| slots[w].store(round, Ordering::Release));
            for slot in &slots {
                assert_eq!(slot.load(Ordering::Acquire), round);
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker 2 exploded")]
    fn worker_panic_propagates_with_payload() {
        let pool = WorkerPool::new(4);
        pool.run(&|w| {
            if w == 2 {
                panic!("worker 2 exploded");
            }
        });
    }

    #[test]
    #[should_panic(expected = "caller share exploded")]
    fn caller_panic_propagates() {
        let pool = WorkerPool::new(2);
        pool.run(&|w| {
            if w == 0 {
                panic!("caller share exploded");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_round() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 3 {
                    panic!("boom");
                }
            })
        }));
        assert!(result.is_err());
        // The pool still works after the failed round.
        let hits = AtomicU64::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_panics() {
        WorkerPool::new(0);
    }

    #[test]
    fn profiling_off_accumulates_nothing() {
        let pool = WorkerPool::new(2);
        pool.run(&|_| {});
        assert_eq!(pool.profile(), PoolProfile::default_for(2));
    }

    #[test]
    fn profiling_counts_rounds_and_busy_time() {
        let pool = WorkerPool::new(3);
        pool.set_profiling(true);
        for _ in 0..5 {
            pool.run(&|_| {
                std::hint::black_box((0..2000).sum::<u64>());
            });
        }
        let prof = pool.profile();
        assert_eq!(prof.rounds, 5);
        assert_eq!(prof.busy_ns.len(), 3);
        assert!(prof.round_wall_ns > 0);
        // Every worker ran every round, so each accumulated some time.
        assert!(prof.busy_ns.iter().all(|&ns| ns > 0), "{prof:?}");
        let frac = prof.idle_fraction();
        assert!((0.0..=1.0).contains(&frac), "idle fraction {frac}");
        pool.reset_profile();
        assert_eq!(pool.profile(), PoolProfile::default_for(3));
    }

    #[test]
    fn profiling_single_thread_pool_attributes_all_to_worker_zero() {
        let pool = WorkerPool::new(1);
        pool.set_profiling(true);
        pool.run(&|_| {
            std::hint::black_box((0..2000).sum::<u64>());
        });
        let prof = pool.profile();
        assert_eq!(prof.rounds, 1);
        assert_eq!(prof.barrier_wait_ns, 0);
        assert!(prof.busy_ns[0] > 0);
        assert_eq!(prof.round_wall_ns, prof.busy_ns[0]);
    }

    impl PoolProfile {
        fn default_for(threads: usize) -> PoolProfile {
            PoolProfile {
                busy_ns: vec![0; threads],
                ..PoolProfile::default()
            }
        }
    }
}
