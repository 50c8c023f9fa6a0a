//! Process-wide persistent replay workers.
//!
//! A small launch replays in tens of microseconds, about what spawning
//! and joining one host thread costs, so `Gpu::launch` does not spawn.
//! It posts its shards to one set of workers shared by the whole
//! process. The workers start on first use, grow to the largest
//! `host_threads − 1` any launch asks for, and live until the process
//! exits. An idle worker polls for the next job for a bounded time before
//! it parks, so back-to-back launches find it awake.
//!
//! The launching thread never waits on a busy pool: it replays shard 0,
//! then every shard no worker has claimed yet, and only then waits for the
//! shards workers are still running. The pool is process-wide rather than
//! per `Gpu` because the devices of a fleet launch from one host thread in
//! turn: a pool per device would leave one polling worker per device
//! competing for the same cores.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker polls for the next job, and the launching
/// thread for its workers' last shards, before parking.
const POLL: Duration = Duration::from_micros(50);

/// A launch's shard body as the workers see it: called with a shard index.
type Task = dyn Fn(usize) + Sync;

/// One launch's shards, shared by its launching thread and every worker
/// that takes part.
struct Job {
    /// The launch's shard body, with the lifetime of its borrows erased
    /// (see [`run_tasks`]). It may dangle once every shard has returned, so it
    /// is read only after claiming a shard below `shards`.
    task: &'static Task,
    shards: usize,
    /// The next unclaimed shard; shard 0 belongs to the launching thread.
    next: AtomicUsize,
    /// Shards that have returned.
    done: AtomicUsize,
    /// The first panic a shard raised, re-raised by the launching thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Unparked by the worker that finishes the last shard.
    launcher: Thread,
}

impl Job {
    /// Claim the next unstarted shard, if any is left.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.shards).then_some(i)
    }

    fn claimable(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.shards
    }

    /// Run claimed shard `i`, keeping a panic for the launching thread.
    /// Returns whether it was the last shard to return.
    fn execute(&self, i: usize) -> bool {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
            lock(&self.panic).get_or_insert(payload);
        }
        // Release: the shard's effects happen before the launching thread's
        // Acquire load of `done` sees them counted.
        self.done.fetch_add(1, Ordering::Release) + 1 == self.shards
    }

    fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire) == self.shards
    }
}

struct State {
    /// Posted jobs that may still have unclaimed shards, oldest first.
    jobs: Vec<Arc<Job>>,
    workers: usize,
    parked: usize,
}

/// The workers' shared state. `epoch` counts posted jobs; it changes only
/// under `state`'s lock, so a worker that read it under the lock and then
/// sees it unchanged knows no job was posted since.
struct Pool {
    state: Mutex<State>,
    posted: Condvar,
    epoch: AtomicU64,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        jobs: Vec::new(),
        workers: 0,
        parked: 0,
    }),
    posted: Condvar::new(),
    epoch: AtomicU64::new(0),
};

/// Lock a pool mutex. Nothing panics while holding one (shard panics are
/// caught outside every lock), so a poisoned lock still holds valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poll `done()` until it holds or [`POLL`] elapses; returns `done()`.
/// Each miss yields rather than pauses: when the scheduler puts the
/// launching thread and a worker on one core, the waiter hands it over
/// instead of burning the time the other thread needs to finish.
fn poll_until(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < POLL {
        if done() {
            return true;
        }
        thread::yield_now();
    }
    done()
}

/// Call `body(i)` once for every `i < shards` and return the results in
/// shard order. The calling thread runs shard 0 and every shard no worker
/// has started; up to `threads − 1` pool workers take the rest. A panic in
/// any shard is re-raised here, after every shard has returned.
pub(super) fn run<R: Send>(
    shards: usize,
    threads: usize,
    body: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    if shards == 1 {
        return vec![body(0)];
    }
    let slots: Vec<Mutex<Option<R>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    run_tasks(shards, threads, &|i| {
        let r = body(i);
        *lock(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every shard stored its result")
        })
        .collect()
}

/// [`run`] without results. Not generic, so the pool machinery compiles
/// once, here, rather than into every crate that launches a kernel.
fn run_tasks(shards: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the lifetime changes. Workers call `task` only for a
    // shard they claimed below `shards` (`Job::claim`), and this function
    // does not return or unwind until every such call has returned: it
    // runs its own shards under `catch_unwind` as well, waits until
    // `done == shards`, and re-raises a shard's panic only after that. So
    // whatever `task` borrows outlives every use of the erased reference;
    // a worker that still holds the `Job` afterwards reads only its
    // counters.
    let task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static Task>(task) };
    let job = Arc::new(Job {
        task,
        shards,
        next: AtomicUsize::new(1),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        launcher: thread::current(),
    });
    post(&job, threads - 1);
    job.execute(0);
    while let Some(i) = job.claim() {
        job.execute(i);
    }
    if !poll_until(|| job.finished()) {
        while !job.finished() {
            thread::park();
        }
    }
    let panic = lock(&job.panic).take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Wake up to `workers` parked workers ahead of a job that is about to be
/// posted: they poll for it instead of waking only once it is posted. A
/// launch calls this before running block 0, which takes about as long as
/// a parked worker takes to wake.
pub(super) fn wake(workers: usize) {
    let st = lock(&POOL.state);
    if st.parked > 0 {
        POOL.epoch.fetch_add(1, Ordering::Relaxed);
        for _ in 0..st.parked.min(workers) {
            POOL.posted.notify_one();
        }
    }
}

/// Make `job` visible to the workers, growing the pool to `workers` and
/// waking parked workers for its shards.
fn post(job: &Arc<Job>, workers: usize) {
    let mut st = lock(&POOL.state);
    while st.workers < workers {
        // A worker that cannot be spawned only costs parallelism: the
        // launching thread replays every shard nobody claims.
        if thread::Builder::new()
            .name("regla-replay".into())
            .spawn(work)
            .is_err()
        {
            break;
        }
        st.workers += 1;
    }
    st.jobs.retain(|j| j.claimable());
    st.jobs.push(Arc::clone(job));
    POOL.epoch.fetch_add(1, Ordering::Relaxed);
    for _ in 0..st.parked.min(job.shards - 1) {
        POOL.posted.notify_one();
    }
}

/// A worker's life: take shards from the oldest job that has any left,
/// poll briefly when there is none, then park until the next post. It
/// never returns and never unwinds (shard panics are caught in
/// [`Job::execute`]), so its handle is not kept.
fn work() {
    loop {
        let (job, seen) = {
            let mut st = lock(&POOL.state);
            st.jobs.retain(|j| j.claimable());
            (st.jobs.first().cloned(), POOL.epoch.load(Ordering::Relaxed))
        };
        if let Some(job) = job {
            while let Some(i) = job.claim() {
                if job.execute(i) {
                    job.launcher.unpark();
                }
            }
            continue;
        }
        if poll_until(|| POOL.epoch.load(Ordering::Relaxed) != seen) {
            continue;
        }
        let mut st = lock(&POOL.state);
        st.parked += 1;
        while POOL.epoch.load(Ordering::Relaxed) == seen {
            st = POOL.posted.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.parked -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shard_runs_once_and_results_keep_shard_order() {
        for threads in [2, 3, 8] {
            let calls: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            let out = run(threads, threads, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i * 10
            });
            assert_eq!(out, (0..threads).map(|i| i * 10).collect::<Vec<_>>());
            assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    /// The launching thread re-raises a shard's panic only once every other
    /// shard has returned: the erased borrow of `body` must outlive them.
    /// Shard 0 panics on the launching thread as soon as a worker is inside
    /// a shard, and worker shards stay inside until `run` has returned (or
    /// a timeout passes), so an early re-raise leaves them unreturned.
    #[test]
    fn a_shard_panic_is_raised_after_every_shard_returns() {
        let shards = 4;
        let launcher = thread::current().id();
        let started = AtomicUsize::new(0);
        let returned = AtomicUsize::new(0);
        let released = std::sync::atomic::AtomicBool::new(false);
        let wait_for = |done: &dyn Fn() -> bool, limit: Duration| {
            let t = Instant::now();
            while !done() && t.elapsed() < limit {
                std::hint::spin_loop();
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(shards, shards, |i| {
                if thread::current().id() != launcher {
                    started.fetch_add(1, Ordering::SeqCst);
                    wait_for(
                        &|| released.load(Ordering::SeqCst),
                        Duration::from_millis(100),
                    );
                } else if i == 0 {
                    wait_for(
                        &|| started.load(Ordering::SeqCst) > 0,
                        Duration::from_secs(5),
                    );
                    resume_unwind(Box::new("shard panic"));
                }
                returned.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let returned_by_then = returned.load(Ordering::SeqCst);
        released.store(true, Ordering::SeqCst);
        let payload = result.expect_err("the shard's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard panic"));
        assert!(started.load(Ordering::SeqCst) > 0, "no worker took a shard");
        assert_eq!(returned_by_then, shards - 1);
    }
}
