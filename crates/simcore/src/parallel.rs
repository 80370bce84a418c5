//! Deterministic fan-out execution.
//!
//! Parameter sweeps dominate the wall-clock of every figure reproduction:
//! dozens of independent `(system, load)` simulations, each fully
//! deterministic given its seed. This module fans such jobs out across OS
//! threads while guaranteeing **bit-identical results regardless of thread
//! count**: jobs are identified by their index in the input and results are
//! reassembled in index order, so scheduling races never reorder output.
//! Each job derives its seeds from its own parameters, never from anything
//! a thread observes at runtime.
//!
//! The worker pool uses `std::thread::scope` — no extra dependencies, no
//! `unsafe` — and pulls jobs from a shared list so long and short jobs
//! balance across threads.

use std::sync::Mutex;

/// Number of worker threads to use by default: the `SWEEP_THREADS`
/// environment variable if set and positive, otherwise the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a pool of `threads` workers and returns the
/// results in input order.
///
/// `f` receives `(index, item)`. The output at position `i` is always
/// `f(i, items[i])`, so the result is independent of thread count and
/// scheduling — any run with the same inputs produces the same output.
///
/// # Panics
///
/// Panics if `threads == 0` or if any invocation of `f` panics.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if threads == 1 || n == 1 {
        // Fast path: no pool, no locking; identical results by construction.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Shared job list: workers take the lowest untaken index. A Mutex'd
    // Vec<Option<T>> keeps this crate free of unsafe code; the lock is held
    // only to take the next job, not while running it.
    let jobs: Mutex<std::vec::IntoIter<(usize, T)>> = Mutex::new(
        items
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_iter(),
    );
    let workers = threads.min(n);

    let mut chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let job = jobs.lock().expect("job list lock poisoned").next();
                        match job {
                            Some((idx, item)) => out.push((idx, f(idx, item))),
                            None => break,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    // Reassemble in index order so output is scheduling-independent.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for chunk in &mut chunks {
        for (idx, r) in chunk.drain(..) {
            debug_assert!(slots[idx].is_none(), "job {idx} ran twice");
            slots[idx] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 4, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads| {
            parallel_map((0..37u64).collect::<Vec<_>>(), threads, |i, x| {
                // A mildly expensive, deterministic function of the job only.
                (0..1000u64).fold(x.wrapping_mul(i as u64 + 1), |a, b| a.rotate_left(7) ^ b)
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(3));
        assert_eq!(one, run(16));
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(empty, 4, |_, x: u32| x).is_empty());
        assert_eq!(parallel_map(vec![9u32], 4, |_, x| x + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = parallel_map(vec![1u32, 2], 16, |_, x| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
