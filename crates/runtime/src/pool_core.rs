//! The generic fixed-size worker pool under [`Runtime`].
//!
//! `PoolCore` owns exactly the concurrency skeleton — one unbounded shared
//! queue feeding `workers` named threads, drain-on-drop shutdown — and
//! nothing about explanation serving. The split exists for the model
//! checker: `PoolCore` speaks only [`revelio_check::sync`] vocabulary, so
//! `revelio-check`'s `--features check` build can exhaustively explore
//! submit/drain/shutdown interleavings of the *real* pool (see
//! `crates/check/tests/real_structures.rs`), while the default build
//! compiles to plain `std` primitives.
//!
//! The queue is a hand-rolled `Mutex<VecDeque>` + `Condvar` rather than a
//! mutex-wrapped `mpsc::Receiver` for one load-bearing reason: an idle
//! worker blocked in `Receiver::recv` holds the receiver mutex for the
//! whole wait, so any *other* worker's non-blocking `try_recv` (the
//! [`PoolCore::spawn_draining`] drain hook) deadlocks until the next
//! submit. A condvar wait releases the lock while parked, so draining
//! workers and idle workers never block each other.
//!
//! [`Runtime`]: crate::Runtime

use std::collections::VecDeque;

use revelio_check::sync::{thread, Arc, Condvar, Mutex, MutexGuard};

/// The shared closeable job queue: `Mutex<VecDeque>` + `Condvar`.
struct Channel<J> {
    state: Mutex<ChannelState<J>>,
    available: Condvar,
}

struct ChannelState<J> {
    queue: VecDeque<J>,
    closed: bool,
}

impl<J> Channel<J> {
    fn new() -> Channel<J> {
        Channel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues unless closed; hands the job back if it is.
    fn push(&self, job: J) -> Result<(), J> {
        let mut s = lock(&self.state);
        if s.closed {
            return Err(job);
        }
        s.queue.push_back(job);
        self.available.notify_one();
        Ok(())
    }

    /// Blocking pop: `None` only once the queue is closed **and** drained.
    /// The condvar wait releases the lock while parked, so concurrent
    /// [`Channel::try_pop`] calls are never blocked by an idle waiter.
    fn pop(&self) -> Option<J> {
        let mut s = lock(&self.state);
        loop {
            if let Some(job) = s.queue.pop_front() {
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = wait(&self.available, s);
        }
    }

    /// Non-blocking pop: `None` when momentarily empty (or closed-and-
    /// drained — callers treat both the same).
    fn try_pop(&self) -> Option<J> {
        lock(&self.state).queue.pop_front()
    }

    /// Closes the queue: pushes fail, poppers drain the backlog then stop.
    fn close(&self) {
        lock(&self.state).closed = true;
        self.available.notify_all();
    }
}

/// Counts the workers still building their state.
struct Starting {
    left: Mutex<usize>,
    done: Condvar,
}

/// Marks one worker as started when dropped: after its `init` returns, or
/// while unwinding out of a panicking `init`, so the spawner never waits
/// on a dead worker.
struct Started(Arc<Starting>);

impl Drop for Started {
    fn drop(&mut self) {
        let mut left = lock(&self.0.left);
        *left -= 1;
        if *left == 0 {
            self.0.done.notify_all();
        }
    }
}

/// A fixed set of worker threads fed from one shared queue.
///
/// Each worker builds its own state with `init(worker_index)` *on the
/// worker thread* (the runtime's state holds `Rc`-based tensors, which
/// must never cross threads), then loops `pop → handler(&mut state, job)`
/// until the queue is closed **and drained**. Dropping the pool closes the
/// queue and joins every worker, so `Drop` is the graceful-drain shutdown.
pub struct PoolCore<J: Send + 'static> {
    channel: Arc<Channel<J>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl<J: Send + 'static> PoolCore<J> {
    /// Spawns `workers` threads named `{name_prefix}-{i}`.
    ///
    /// `init` runs once per worker, on that worker's thread, and this
    /// returns once every `init` has; `handler` runs once per job. A handler that panics kills its worker (the
    /// caller is expected to `catch_unwind` per job if workers must
    /// survive — [`Runtime`] does).
    ///
    /// # Errors
    ///
    /// Propagates the OS thread-spawn failure; threads spawned before the
    /// failure are shut down (the queue is closed, so they exit).
    ///
    /// [`Runtime`]: crate::Runtime
    pub fn spawn<S, I, H>(
        name_prefix: &str,
        workers: usize,
        init: I,
        handler: H,
    ) -> std::io::Result<PoolCore<J>>
    where
        S: 'static,
        I: Fn(usize) -> S + Send + Sync + 'static,
        H: Fn(&mut S, J) + Send + Sync + 'static,
    {
        PoolCore::spawn_draining(name_prefix, workers, init, move |state, job, _drain| {
            handler(state, job)
        })
    }

    /// Like [`PoolCore::spawn`], but the handler also receives a `drain`
    /// closure that non-blockingly pulls further queued jobs (`None` when
    /// the queue is momentarily empty or closed). This lets a handler
    /// opportunistically coalesce several jobs into one unit of work
    /// (e.g. a fused optimisation batch) without a second queue.
    ///
    /// Draining never blocks on idle workers: they park on the queue's
    /// condvar, not inside a lock (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates the OS thread-spawn failure; threads spawned before the
    /// failure are shut down (the queue is closed, so they exit).
    pub fn spawn_draining<S, I, H>(
        name_prefix: &str,
        workers: usize,
        init: I,
        handler: H,
    ) -> std::io::Result<PoolCore<J>>
    where
        S: 'static,
        I: Fn(usize) -> S + Send + Sync + 'static,
        H: Fn(&mut S, J, &mut dyn FnMut() -> Option<J>) + Send + Sync + 'static,
    {
        let channel = Arc::new(Channel::new());
        let starting = Arc::new(Starting {
            left: Mutex::new(workers),
            done: Condvar::new(),
        });
        let init = Arc::new(init);
        let handler = Arc::new(handler);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_channel = Arc::clone(&channel);
            let started = Started(Arc::clone(&starting));
            let init = Arc::clone(&init);
            let handler = Arc::clone(&handler);
            let spawned = thread::Builder::new()
                .name(format!("{name_prefix}-{i}"))
                .spawn(move || {
                    let mut state = init(i);
                    drop(started);
                    while let Some(job) = worker_channel.pop() {
                        let mut drain = || worker_channel.try_pop();
                        handler(&mut state, job, &mut drain);
                    }
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    channel.close();
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        // Return only once every worker is up, so threads the caller starts
        // next (a server's acceptor) always start after the pool's.
        let mut left = lock(&starting.left);
        while *left > 0 {
            left = wait(&starting.done, left);
        }
        drop(left);
        Ok(PoolCore {
            channel,
            workers: handles,
        })
    }

    /// Enqueues one job, or hands it back when every worker has exited
    /// (which cannot normally happen while the pool is alive — workers
    /// only exit when the queue closes or a handler panics).
    ///
    /// # Errors
    ///
    /// Returns the job unchanged when no worker can ever receive it.
    pub fn submit(&self, job: J) -> Result<(), J> {
        // Workers hold the only other `Arc`s to the channel: a count of 1
        // means every worker exited (all panicked, or shutdown began), so
        // nothing could ever serve the job — mirror a closed-channel send.
        if Arc::strong_count(&self.channel) <= 1 {
            return Err(job);
        }
        self.channel.push(job)
    }

    /// The number of worker threads the pool was spawned with.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl<J: Send + 'static> Drop for PoolCore<J> {
    fn drop(&mut self) {
        // Closing the queue is the shutdown signal: workers drain the
        // remaining backlog, then `pop` returns `None` and they exit.
        self.channel.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<J: Send + 'static> std::fmt::Debug for PoolCore<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolCore")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Locks a mutex, riding through poisoning (workers catch job panics, so
/// a poisoned queue lock only means a handler died between jobs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Waits on a condvar, riding through poisoning like [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_check::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn jobs_are_handled_and_drop_drains_the_queue() {
        let sum = Arc::new(AtomicU64::new(0));
        let pool = {
            let sum = Arc::clone(&sum);
            PoolCore::spawn(
                "pool-core-test",
                2,
                |_i| (),
                move |(), job: u64| {
                    sum.fetch_add(job, Ordering::Relaxed);
                },
            )
            .expect("spawn")
        };
        assert_eq!(pool.workers(), 2);
        for job in 1..=100u64 {
            pool.submit(job).expect("submit");
        }
        drop(pool); // graceful drain: every submitted job is handled
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn per_worker_init_runs_on_each_worker() {
        let inits = Arc::new(AtomicU64::new(0));
        let pool: PoolCore<u64> = {
            let inits = Arc::clone(&inits);
            PoolCore::spawn(
                "pool-core-init",
                3,
                move |_i| {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), _job| {},
            )
            .expect("spawn")
        };
        drop(pool);
        assert_eq!(inits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn spawn_returns_after_every_init_even_a_panicking_one() {
        let inits = Arc::new(AtomicU64::new(0));
        let pool: PoolCore<u64> = {
            let inits = Arc::clone(&inits);
            PoolCore::spawn(
                "pool-core-started",
                3,
                move |i| {
                    assert!(i != 0, "worker 0's init fails");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), _job| {},
            )
            .expect("spawn")
        };
        assert_eq!(inits.load(Ordering::Relaxed), 2);
        drop(pool);
    }

    #[test]
    fn draining_handler_can_coalesce_queued_jobs() {
        // One worker, jobs queued before spawn-side submission finishes:
        // the handler drains whatever is queued into one "batch" and
        // records batch sizes; every job must be covered exactly once.
        let sum = Arc::new(AtomicU64::new(0));
        let batches = Arc::new(AtomicU64::new(0));
        let pool = {
            let sum = Arc::clone(&sum);
            let batches = Arc::clone(&batches);
            PoolCore::spawn_draining(
                "pool-core-drain",
                1,
                |_i| (),
                move |(), first: u64, drain| {
                    let mut total = first;
                    while let Some(next) = drain() {
                        total += next;
                    }
                    sum.fetch_add(total, Ordering::Relaxed);
                    batches.fetch_add(1, Ordering::Relaxed);
                },
            )
            .expect("spawn")
        };
        for job in 1..=100u64 {
            pool.submit(job).expect("submit");
        }
        drop(pool);
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        // At least one handler invocation; at most one per job.
        let b = batches.load(Ordering::Relaxed);
        assert!((1..=100).contains(&b), "batches = {b}");
    }

    #[test]
    fn draining_is_not_blocked_by_idle_workers() {
        // Regression for the deadlock this queue design exists to prevent:
        // with 2+ workers, one worker sits idle while the other serves a
        // job and drains. With a mutex-wrapped `mpsc::Receiver` the idle
        // worker's blocking `recv` holds the lock, and the serving
        // worker's drain would stall until the *next* submit — with the
        // condvar queue the drain returns immediately and the job
        // completes without further submissions.
        let served = Arc::new(AtomicU64::new(0));
        let pool = {
            let served = Arc::clone(&served);
            PoolCore::spawn_draining(
                "pool-core-idle",
                2,
                |_i| (),
                move |(), job: u64, drain| {
                    let mut total = job;
                    while let Some(next) = drain() {
                        total += next;
                    }
                    served.fetch_add(total, Ordering::Relaxed);
                },
            )
            .expect("spawn")
        };
        // One lone job: some worker picks it up, the other stays idle.
        pool.submit(41).expect("submit");
        // Wait for completion *without* submitting anything else; a drain
        // deadlock would keep `served` at 0 forever.
        for _ in 0..2000 {
            if served.load(Ordering::Relaxed) == 41 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(served.load(Ordering::Relaxed), 41);
        drop(pool);
    }

    #[test]
    fn submit_after_worker_exit_returns_the_job() {
        let mut pool: PoolCore<u64> =
            PoolCore::spawn("pool-core-closed", 1, |_i| (), |(), _job| {}).expect("spawn");
        // Simulate the closed state Drop creates, without dropping.
        pool.channel.close();
        for handle in pool.workers.drain(..) {
            let _ = handle.join();
        }
        assert_eq!(pool.submit(7), Err(7));
        assert_eq!(pool.workers(), 0);
    }
}
