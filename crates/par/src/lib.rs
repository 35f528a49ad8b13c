//! # par — dependency-free parallel building blocks
//!
//! Two primitives, both on plain `std::thread`, no external crates:
//!
//! * [`Executor`] — a **scoped work-stealing executor** for fan-out/join
//!   data parallelism. Each call to [`Executor::par_map`] splits the input
//!   into per-worker ranges claimed through atomic cursors; a worker that
//!   drains its own range steals items from the most-loaded peer, so
//!   skewed workloads (one huge XML area among many small ones) still
//!   balance. Results come back **in input order**, and `threads == 1`
//!   runs the plain sequential loop on the caller's thread — bit-for-bit
//!   the same control flow, which is what lets `--threads 1` force the
//!   sequential path everywhere.
//! * [`ThreadPool`] — the fixed pool of OS workers behind a bounded job
//!   queue that `ruid-service` serves connections from (extracted here so
//!   the build pipeline and the server share one threading crate).
//!
//! The rUID construction is the motivating workload: UID-local areas are
//! disjoint induced subtrees (Definitions 1–2 of the paper) whose local
//! enumerations are mutually independent, so labeling them is an
//! embarrassingly parallel `par_map` over areas.

#![forbid(unsafe_code)]

mod pool;

pub use pool::{PoolClosed, PoolStats, SubmitError, ThreadPool};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// Process-wide executor counters. `Executor` is `Copy` and holds no state,
// so the counters live here; only the *parallel* path counts (a sequential
// `par_map` is a plain loop and stays untouched), and workers accumulate
// locally, publishing one `fetch_add` each when they finish.
static PAR_MAPS: AtomicU64 = AtomicU64::new(0);
static PAR_ITEMS: AtomicU64 = AtomicU64::new(0);
static PAR_STEALS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide [`Executor`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Parallel `par_map` invocations (sequential fallbacks excluded).
    pub par_maps: u64,
    /// Items processed by parallel `par_map` invocations.
    pub par_items: u64,
    /// Items a worker claimed from a peer's range rather than its own.
    pub par_steals: u64,
}

/// Reads the process-wide executor counters.
pub fn executor_stats() -> ExecutorStats {
    ExecutorStats {
        par_maps: PAR_MAPS.load(Ordering::Relaxed),
        par_items: PAR_ITEMS.load(Ordering::Relaxed),
        par_steals: PAR_STEALS.load(Ordering::Relaxed),
    }
}

/// Number of hardware threads, with a safe floor of 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// A scoped fan-out/join executor with a fixed thread budget.
///
/// The executor holds no threads of its own: every [`Executor::par_map`]
/// call spawns scoped workers (`std::thread::scope`), so closures may
/// borrow from the caller's stack and nothing outlives the call. For the
/// chunky work this crate targets (labeling areas of thousands of nodes,
/// indexing chunks of a document) the spawn cost is noise.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with a budget of `threads` workers (min 1).
    pub fn new(threads: usize) -> Executor {
        Executor { threads: threads.max(1) }
    }

    /// An executor sized to the hardware ([`available_threads`]).
    pub fn auto() -> Executor {
        Executor::new(available_threads())
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this executor runs everything on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// With one thread (or at most one item) this is exactly
    /// `items.iter().enumerate().map(..).collect()` on the caller's
    /// thread. Otherwise `min(threads, len)` scoped workers claim items
    /// from per-worker ranges and steal across ranges once their own is
    /// drained.
    ///
    /// # Panics
    /// Re-raises the first worker panic after all workers have stopped.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let workers = self.threads.min(n);
        let queues = WorkQueues::split(n, workers);
        PAR_MAPS.fetch_add(1, Ordering::Relaxed);
        PAR_ITEMS.fetch_add(n as u64, Ordering::Relaxed);
        let mut collected: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let f = &f;
                    s.spawn(move || {
                        let mut local = Vec::new();
                        let mut steals = 0u64;
                        while let Some((i, stolen)) = queues.claim(w) {
                            steals += u64::from(stolen);
                            local.push((i, f(i, &items[i])));
                        }
                        if steals > 0 {
                            PAR_STEALS.fetch_add(steals, Ordering::Relaxed);
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(part) => collected.push(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        // Scatter back to input order; every index was claimed exactly once.
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for (i, r) in collected.into_iter().flatten() {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(r);
        }
        out.into_iter().map(|r| r.expect("every index claimed exactly once")).collect()
    }

    /// Fallible [`Executor::par_map`]: the error of the **lowest input
    /// index** wins, matching what the sequential loop would report first.
    pub fn try_par_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            // True sequential semantics: stop at the first error.
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let mut out = Vec::with_capacity(items.len());
        for result in self.par_map(items, f) {
            out.push(result?);
        }
        Ok(out)
    }
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::auto()
    }
}

/// Per-worker index ranges with atomic claim cursors.
///
/// `claim(w)` takes from worker `w`'s own range first; once that is
/// drained it steals from the peer with the most remaining work. All
/// cursors only move forward, so an item is claimed exactly once; a
/// `fetch_add` that lands past `end` simply means the range was empty at
/// that instant (the cursor overshoot is bounded by the worker count).
struct WorkQueues {
    ranges: Vec<(AtomicUsize, usize)>,
}

impl WorkQueues {
    fn split(n: usize, workers: usize) -> WorkQueues {
        let base = n / workers;
        let extra = n % workers;
        let mut start = 0usize;
        let ranges = (0..workers)
            .map(|w| {
                let len = base + usize::from(w < extra);
                let range = (AtomicUsize::new(start), start + len);
                start += len;
                range
            })
            .collect();
        WorkQueues { ranges }
    }

    /// Claims one index for worker `w`; the flag is `true` when the index
    /// came from a peer's range (a steal) rather than `w`'s own.
    fn claim(&self, w: usize) -> Option<(usize, bool)> {
        let (next, end) = &self.ranges[w];
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i < *end {
            return Some((i, false));
        }
        self.steal().map(|i| (i, true))
    }

    fn steal(&self) -> Option<usize> {
        loop {
            let victim = self
                .ranges
                .iter()
                .max_by_key(|(next, end)| end.saturating_sub(next.load(Ordering::Relaxed)))?;
            let (next, end) = victim;
            if end.saturating_sub(next.load(Ordering::Relaxed)) == 0 {
                return None; // everything everywhere is drained
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i < *end {
                return Some(i);
            }
            // Lost the race on that range; look again.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 33] {
            let exec = Executor::new(threads);
            assert_eq!(exec.par_map(&items, |_, &x| x * x + 1), expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let exec = Executor::new(4);
        assert_eq!(exec.par_map(&[] as &[u64], |_, &x| x), Vec::<u64>::new());
        assert_eq!(exec.par_map(&[7u64], |i, &x| x + i as u64), vec![7]);
        assert_eq!(exec.par_map(&[1u64, 2], |_, &x| x * 10), vec![10, 20]);
    }

    #[test]
    fn skewed_work_is_stolen() {
        // One item is 1000x heavier than the rest; with stealing, the
        // other workers drain the remaining items rather than idling.
        let items: Vec<usize> = (0..64).collect();
        let done = AtomicUsize::new(0);
        let exec = Executor::new(4);
        let out = exec.par_map(&items, |_, &x| {
            let spin = if x == 0 { 200_000 } else { 200 };
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            done.fetch_add(1, Ordering::Relaxed);
            acc
        });
        assert_eq!(out.len(), 64);
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn try_par_map_reports_lowest_index_error() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let result: Result<Vec<usize>, usize> =
                exec.try_par_map(&items, |_, &x| if x % 7 == 3 { Err(x) } else { Ok(x) });
            assert_eq!(result, Err(3), "threads={threads}");
            let ok: Result<Vec<usize>, usize> = exec.try_par_map(&items, |_, &x| Ok(x * 2));
            assert_eq!(ok.unwrap()[50], 100);
        }
    }

    #[test]
    fn one_thread_is_sequential() {
        let exec = Executor::new(1);
        assert!(exec.is_sequential());
        assert_eq!(exec.threads(), 1);
        // Runs on the caller's thread: thread-local state proves it.
        let caller = std::thread::current().id();
        let seen = exec.par_map(&[1, 2, 3], |_, _| std::thread::current().id());
        assert!(seen.iter().all(|&id| id == caller));
    }

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert!(available_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..32).collect();
        Executor::new(4).par_map(&items, |_, &x| {
            if x == 17 {
                panic!("worker boom");
            }
            x
        });
    }
}
