//! Process-wide persistent workers, and the one claiming primitive built
//! on them.
//!
//! A small launch replays in tens of microseconds, about what spawning
//! and joining one host thread costs, so `Gpu::launch` does not spawn.
//! Its participants (the launching thread plus up to `host_threads − 1`
//! workers shared by the whole process) take the launch's replay units
//! one at a time from one shared counter until none are left, the way a
//! GPU's block scheduler hands each block to whichever SM frees up
//! first. The workers start on first use, grow to the largest
//! `host_threads − 1` any caller asks for, and live until the process
//! exits. An idle worker polls for the next job for a bounded time before
//! it parks, so back-to-back launches find it awake.
//!
//! The calling thread never waits on a busy pool: it claims items itself
//! until none are left and only then waits for the items already in
//! flight on workers. The pool is process-wide rather than per `Gpu`
//! because the devices of a fleet launch from one host thread in turn: a
//! pool per device would leave one polling worker per device competing
//! for the same cores. [`par_map`] exposes the same claiming to host-side
//! per-problem work, such as regla-core's verify screens.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker polls for the next job, and the calling thread
/// for items still in flight, before parking.
const POLL: Duration = Duration::from_micros(50);

/// The items of one call, claimed one at a time in ascending order by
/// every participant. Iterating a `&Claims` claims the next item.
pub(super) struct Claims {
    next: AtomicUsize,
    items: usize,
}

impl Claims {
    fn new(items: usize) -> Self {
        Claims {
            next: AtomicUsize::new(0),
            items,
        }
    }
}

impl Iterator for &Claims {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // Relaxed: the index publishes nothing; each item's inputs were
        // written before the call started and its effects reach the
        // caller through the job's `done` count.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.items).then_some(i)
    }
}

/// One participant's body as the workers see it: called with the
/// participant's index.
type Task = dyn Fn(usize) + Sync;

/// One call's participants, shared by its calling thread and every worker
/// that takes part.
struct Job {
    /// The participant body, with the lifetime of its borrows erased (see
    /// [`run_tasks`]). It may dangle once every participant has returned,
    /// so it is read only after claiming a participant below `tasks`.
    task: &'static Task,
    tasks: usize,
    /// The next unstarted participant; participant 0 belongs to the
    /// calling thread.
    next: AtomicUsize,
    /// Participants that have returned.
    done: AtomicUsize,
    /// The first panic a participant raised, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Unparked by the worker whose participant returns last.
    caller: Thread,
}

impl Job {
    /// Claim the next unstarted participant, if any is left.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.tasks).then_some(i)
    }

    fn claimable(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.tasks
    }

    /// Run claimed participant `i`, keeping a panic for the caller.
    /// Returns whether it was the last participant to return.
    fn execute(&self, i: usize) -> bool {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
            lock(&self.panic).get_or_insert(payload);
        }
        // Release: the participant's effects happen before the caller's
        // Acquire load of `done` sees them counted.
        self.done.fetch_add(1, Ordering::Release) + 1 == self.tasks
    }

    fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire) == self.tasks
    }
}

struct State {
    /// Posted jobs that may still have unstarted participants, oldest
    /// first.
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

/// Lock a pool mutex. Nothing panics while holding one (participant
/// panics are caught outside every lock), so a poisoned lock still holds
/// valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poll `done()` until it holds or [`POLL`] elapses; returns `done()`.
/// Each miss yields rather than pauses: when the scheduler puts the
/// calling thread and a worker on one core, the waiter hands it over
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

/// Let min(`threads`, `items`) participants claim `items` items: the
/// calling thread, and up to `threads − 1` pool workers that join while
/// items are left. Each participant calls `body` once with the shared
/// [`Claims`] and iterates it to take the next item until none are left;
/// returns the participants' results in participant order. One
/// participant runs inline, with no pool round trip. A panic in any
/// participant is re-raised here, after every participant has returned.
pub(super) fn claim<R: Send>(
    items: usize,
    threads: usize,
    body: impl Fn(&Claims) -> R + Sync,
) -> Vec<R> {
    let claims = Claims::new(items);
    let participants = threads.min(items).max(1);
    if participants == 1 {
        return vec![body(&claims)];
    }
    let slots: Vec<Mutex<Option<R>>> = (0..participants).map(|_| Mutex::new(None)).collect();
    run_tasks(participants, threads, &|i| {
        let r = body(&claims);
        *lock(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every participant stored its result")
        })
        .collect()
}

/// Map `body` over `items` on the persistent workers and return the
/// results in item order.
///
/// The calling thread and up to `threads − 1` workers claim items one at
/// a time, so a slow item delays only the participant that took it.
/// `threads` resolves as [`crate::LaunchConfig::host_threads`] does:
/// `None` defers to `REGLA_SIM_THREADS` and then to available
/// parallelism. One item, or one thread, runs inline on the calling
/// thread; batch small work into items (chunks of problems, say) so each
/// claim pays for its round trip. A panic in `body` is re-raised here
/// once every claimed item has returned.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: Option<usize>,
    body: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = super::resolve_host_threads(threads);
    let runs = claim(items.len(), threads, |claims| {
        claims.map(|i| (i, body(&items[i]))).collect::<Vec<_>>()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in runs.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every item was claimed once"))
        .collect()
}

/// Run participant `task(i)` once for every `i < tasks`: the calling
/// thread runs participant 0 and every participant no worker has started.
/// Not generic, so the pool machinery compiles once, here, rather than
/// into every crate that launches a kernel.
fn run_tasks(tasks: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the lifetime changes. Workers call `task` only for a
    // participant they claimed below `tasks` (`Job::claim`), and this
    // function does not return or unwind until every such call has
    // returned: it runs its own participants under `catch_unwind` as
    // well, waits until `done == tasks`, and re-raises a participant's
    // panic only after that. So whatever `task` borrows outlives every
    // use of the erased reference; a worker that still holds the `Job`
    // afterwards reads only its counters.
    let task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static Task>(task) };
    let job = Arc::new(Job {
        task,
        tasks,
        next: AtomicUsize::new(1),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
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
/// waking parked workers for its participants.
fn post(job: &Arc<Job>, workers: usize) {
    let mut st = lock(&POOL.state);
    while st.workers < workers {
        // A worker that cannot be spawned only costs parallelism: the
        // calling thread claims every item nobody else does.
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
    for _ in 0..st.parked.min(job.tasks - 1) {
        POOL.posted.notify_one();
    }
}

/// A worker's life: join the oldest job that has participants left, poll
/// briefly when there is none, then park until the next post. It never
/// returns and never unwinds (participant panics are caught in
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
                    job.caller.unpark();
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
    use std::sync::atomic::AtomicBool;

    #[test]
    fn every_item_runs_once_and_results_keep_item_order() {
        for threads in [1, 2, 3, 8] {
            for items in [0, 1, threads - 1, threads, 10 * threads] {
                let calls: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
                let input: Vec<usize> = (0..items).collect();
                let out = par_map(&input, Some(threads), |&i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    i * 10
                });
                assert_eq!(
                    out,
                    (0..items).map(|i| i * 10).collect::<Vec<_>>(),
                    "{items} items at {threads} threads"
                );
                assert!(
                    calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "{items} items at {threads} threads: an item ran twice or never"
                );
            }
        }
    }

    /// The caller re-raises an item's panic only once every other claimed
    /// item has returned: the erased borrow of `body` must outlive them.
    /// The first item the calling thread takes panics as soon as a worker
    /// is inside an item, and worker items stay inside until `par_map` has
    /// returned (or a timeout passes), so an early re-raise leaves them
    /// unreturned. The panic ends only the calling thread's participant:
    /// the other participants go on to claim every remaining item.
    #[test]
    fn a_panicking_item_is_raised_after_every_claimed_item_returns() {
        let threads = 4;
        let items: Vec<usize> = (0..2 * threads).collect();
        let caller = thread::current().id();
        let panicked = AtomicBool::new(false);
        let started = AtomicUsize::new(0);
        let returned = AtomicUsize::new(0);
        let released = AtomicBool::new(false);
        let wait_for = |done: &dyn Fn() -> bool, limit: Duration| {
            let t = Instant::now();
            while !done() && t.elapsed() < limit {
                std::hint::spin_loop();
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, Some(threads), |_| {
                let on_caller = thread::current().id() == caller;
                if on_caller && !panicked.swap(true, Ordering::SeqCst) {
                    wait_for(
                        &|| started.load(Ordering::SeqCst) > 0,
                        Duration::from_secs(5),
                    );
                    resume_unwind(Box::new("item panic"));
                }
                if !on_caller {
                    started.fetch_add(1, Ordering::SeqCst);
                    wait_for(
                        &|| released.load(Ordering::SeqCst),
                        Duration::from_millis(100),
                    );
                }
                returned.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let returned_by_then = returned.load(Ordering::SeqCst);
        released.store(true, Ordering::SeqCst);
        let payload = result.expect_err("the item's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item panic"));
        assert!(started.load(Ordering::SeqCst) > 0, "no worker took an item");
        assert_eq!(returned_by_then, items.len() - 1);
    }
}
