//! A fixed pool of OS worker threads behind a bounded job queue.
//!
//! Jobs are `FnOnce` closures. An idle worker waits on a hand-off
//! channel of its own, and a new job goes to the worker that went idle
//! last: jobs that arrive one at a time then all run on one thread, whose
//! allocator arena and caches stay warm, instead of rotating through
//! every worker and growing each one's arena. A job that finds every
//! worker busy waits in a queue of at most `queue_cap`; once it is full
//! `execute` blocks — backpressure instead of unbounded memory growth
//! when clients outpace the workers — and `try_execute` sheds. Shutdown
//! is graceful: every job already accepted runs, then every worker is
//! joined.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A unit of work for the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Error returned by [`ThreadPool::execute`] when the pool has shut down.
#[derive(Debug, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool is shut down")
    }
}

impl std::error::Error for PoolClosed {}

/// Error returned by [`ThreadPool::try_execute`].
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The job queue is at capacity — shed load instead of blocking.
    Full,
    /// The pool has shut down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "job queue is full"),
            SubmitError::Closed => write!(f, "thread pool is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Lock-free pool counters, shareable past the pool's own lifetime (the
/// metrics exporter reads them while the pool is busy or already gone).
#[derive(Debug, Default)]
pub struct PoolStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    depth: AtomicU64,
    max_depth: AtomicU64,
}

impl PoolStats {
    /// Jobs accepted onto the queue (blocking and non-blocking submits).
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Jobs that finished running (or unwound via panic).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Non-blocking submits shed because the queue was at capacity.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Jobs submitted but not yet completed (queued + running).
    pub fn queue_depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// High-water mark of [`PoolStats::queue_depth`].
    pub fn max_queue_depth(&self) -> u64 {
        self.max_depth.load(Ordering::Relaxed)
    }

    /// Counts a submit before the send so a racing completion can never
    /// underflow `depth`; rolled back via `on_reject` if the send fails.
    fn on_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Rollback for a failed submit. The rejected job is dropped with the
    /// error, which fires its [`CompleteGuard`] (completed+1, depth-1);
    /// undoing `submitted` and `completed` leaves every counter net-zero
    /// for the failed submit.
    fn on_reject(&self) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        self.completed.fetch_sub(1, Ordering::Relaxed);
    }

    fn on_complete(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Decrements depth on drop so a panicking job still counts as complete.
struct CompleteGuard(Arc<PoolStats>);

impl Drop for CompleteGuard {
    fn drop(&mut self) {
        self.0.on_complete();
    }
}

/// What the workers and the submitters share.
struct Queue {
    state: Mutex<State>,
    /// Signalled when a worker takes a queued job, for a blocked
    /// [`ThreadPool::execute`].
    space: Condvar,
    cap: usize,
}

struct State {
    /// Accepted jobs that found no idle worker, oldest first.
    jobs: VecDeque<Task>,
    /// The idle workers' hand-off channels, the most recently idle last.
    idle: Vec<Sender<Task>>,
    closed: bool,
}

impl Queue {
    /// The state never holds a half-made update (each is one push, pop
    /// or store), so a guard poisoned by a panicking thread is sound.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size worker pool with a bounded job queue.
pub struct ThreadPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl ThreadPool {
    /// Spawns `threads` workers (min 1) sharing a queue of at most
    /// `queue_cap` pending jobs (min 1).
    pub fn new(threads: usize, queue_cap: usize) -> ThreadPool {
        let threads = threads.max(1);
        let queue = Arc::new(Queue {
            state: Mutex::new(State { jobs: VecDeque::new(), idle: Vec::new(), closed: false }),
            space: Condvar::new(),
            cap: queue_cap.max(1),
        });
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("ruid-worker-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { queue, workers, stats: Arc::new(PoolStats::default()) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// A shared handle to the pool's counters; stays valid after shutdown.
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }

    fn wrap<F: FnOnce() + Send + 'static>(&self, job: F) -> Task {
        let guard = CompleteGuard(Arc::clone(&self.stats));
        Box::new(move || {
            let _guard = guard;
            job();
        })
    }

    /// Hands `task` to the most recently idle worker, else queues it;
    /// with the queue full it waits for room when `block`, else fails.
    /// A failed submit drops the task.
    fn submit(&self, mut task: Task, block: bool) -> Result<(), SubmitError> {
        self.stats.on_submit();
        let mut state = self.queue.lock();
        let refused = loop {
            if state.closed {
                break SubmitError::Closed;
            }
            if let Some(worker) = state.idle.pop() {
                // A worker leaves `idle` only through this pop or a
                // shutdown, so its receiver is waiting; a failed send
                // means its thread died, and the next idle one is tried.
                match worker.send(task) {
                    Ok(()) => return Ok(()),
                    Err(mpsc::SendError(back)) => task = back,
                }
            } else if state.jobs.len() < self.queue.cap {
                state.jobs.push_back(task);
                return Ok(());
            } else if block {
                state = self.queue.space.wait(state).unwrap_or_else(PoisonError::into_inner);
            } else {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                break SubmitError::Full;
            }
        };
        drop(state);
        drop(task); // fires the job's guard
        self.stats.on_reject();
        Err(refused)
    }

    /// Queues `job`, blocking while the queue is full. Fails only after
    /// shutdown.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), PoolClosed> {
        self.submit(self.wrap(job), true).map_err(|_| PoolClosed)
    }

    /// Queues `job` without blocking: [`SubmitError::Full`] when the
    /// queue is at capacity, so the caller can shed load explicitly
    /// (reply `BUSY`) instead of parking the accept thread.
    pub fn try_execute<F: FnOnce() + Send + 'static>(
        &self,
        job: F,
    ) -> Result<(), SubmitError> {
        self.submit(self.wrap(job), false)
    }

    /// Refuses new jobs and releases the idle workers; busy ones finish
    /// the queue first.
    fn close(&self) {
        let mut state = self.queue.lock();
        state.closed = true;
        state.idle.clear();
    }

    /// Graceful shutdown: every job already accepted runs to completion,
    /// then every worker is joined.
    pub fn shutdown(mut self) {
        self.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ThreadPool {
    /// Without [`ThreadPool::shutdown`] the workers still finish the
    /// accepted jobs and exit, detached.
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        // Hold the lock only to take a job or go idle, never while working.
        let task = {
            let mut state = queue.lock();
            if let Some(task) = state.jobs.pop_front() {
                queue.space.notify_one();
                task
            } else if state.closed {
                return;
            } else {
                let (hand_off, next) = mpsc::channel();
                state.idle.push(hand_off);
                drop(state);
                // Disconnected once shutdown drops the idle channels.
                match next.recv() {
                    Ok(task) => task,
                    Err(_) => return,
                }
            }
        };
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_all_jobs_then_drains_on_shutdown() {
        let pool = ThreadPool::new(4, 8);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        // One worker stuck on a slow job; capacity-1 queue: the third
        // submit must block until the worker frees a slot.
        let pool = ThreadPool::new(1, 1);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            release_rx.recv().unwrap();
        })
        .unwrap();
        pool.execute(|| {}).unwrap(); // fills the queue
        let started = std::time::Instant::now();
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            release_tx.send(()).unwrap();
        });
        pool.execute(|| {}).unwrap(); // blocks until the slow job finishes
        assert!(
            started.elapsed() >= Duration::from_millis(80),
            "submit returned before the queue had room"
        );
        release.join().unwrap();
        pool.shutdown();
    }

    #[test]
    fn try_execute_sheds_instead_of_blocking() {
        // One worker stuck on a gated job, capacity-1 queue: the first
        // try_execute fills the queue, the second must report Full
        // immediately rather than block.
        let pool = ThreadPool::new(1, 1);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            release_rx.recv().unwrap();
        })
        .unwrap();
        // The worker may not have dequeued the gated job yet; fill until Full.
        let mut fills = 0;
        let started = std::time::Instant::now();
        loop {
            match pool.try_execute(|| {}) {
                Ok(()) => fills += 1,
                Err(SubmitError::Full) => break,
                Err(SubmitError::Closed) => panic!("pool closed unexpectedly"),
            }
            assert!(fills <= 2, "capacity-1 queue accepted {fills} pending jobs");
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "try_execute must not block on a full queue"
        );
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn stats_track_submits_completions_and_rejections() {
        let pool = ThreadPool::new(1, 1);
        let stats = pool.stats();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            release_rx.recv().unwrap();
        })
        .unwrap();
        // Fill the queue, then force at least one rejection.
        let mut accepted = 1u64;
        loop {
            match pool.try_execute(|| {}) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Full) => break,
                Err(SubmitError::Closed) => panic!("pool closed unexpectedly"),
            }
        }
        assert!(stats.rejected() >= 1);
        assert_eq!(stats.submitted(), accepted);
        assert!(stats.max_queue_depth() >= 2);
        release_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(stats.submitted(), accepted);
        assert_eq!(stats.completed(), accepted);
        assert_eq!(stats.queue_depth(), 0);
    }

    #[test]
    fn one_job_at_a_time_stays_on_one_worker() {
        let pool = ThreadPool::new(4, 4);
        let mut ran_on = Vec::new();
        for _ in 0..20 {
            // Every worker idle again, the last one to finish on top.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while pool.queue.lock().idle.len() < 4 {
                assert!(std::time::Instant::now() < deadline, "workers never went idle");
                std::thread::yield_now();
            }
            let (tx, rx) = std::sync::mpsc::channel();
            pool.execute(move || tx.send(std::thread::current().name().map(str::to_owned)).unwrap())
                .unwrap();
            ran_on.push(rx.recv().unwrap());
        }
        assert!(ran_on.iter().all(|name| *name == ran_on[0]), "{ran_on:?}");
        pool.shutdown();
    }

    #[test]
    fn single_thread_minimum() {
        let pool = ThreadPool::new(0, 0);
        assert_eq!(pool.threads(), 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.execute(move || {
            r.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}
