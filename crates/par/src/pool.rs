//! Shared-memory parallel execution (the OpenMP analogue, Fig. 4).
//!
//! The paper's shared-memory flow: the main thread allocates P, spawns
//! D − 1 worker threads, each thread computes the P̃ entries of its
//! partition in *private* memory and merges the result; threads then join
//! back into the main thread. [`run_partitioned`] reproduces exactly that
//! structure with `std` scoped threads: workers return private values
//! that the caller merges, so there is no locking on the hot path.

use std::time::Instant;

use crate::partition::partition_ranges;

/// Per-worker timing of one parallel region.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTiming {
    /// Worker index (0 = the main thread's share).
    pub worker: usize,
    /// The half-open range of `k` indices this worker processed.
    pub range: std::ops::Range<usize>,
    /// Wall-clock seconds spent inside the worker body.
    pub seconds: f64,
}

/// Runs `work` over `[0, total)` split into `threads` contiguous ranges
/// (Algorithm 1's partition), each on its own scoped thread; returns the
/// workers' private results plus per-worker timings, in worker order.
///
/// The closure receives `(worker_index, range)` and must accumulate into
/// private state it returns — mirroring Fig. 4 where each thread writes a
/// private copy before the merge.
///
/// # Panics
///
/// Panics if `threads == 0` or if any worker panics.
pub fn run_partitioned<T, F>(threads: usize, total: usize, work: F) -> (Vec<T>, Vec<WorkerTiming>)
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let ranges = partition_ranges(total, threads);
    if threads == 1 {
        // Sequential fast path: no thread machinery at all.
        let start = Instant::now();
        let out = work(0, ranges[0].clone());
        let t = WorkerTiming {
            worker: 0,
            range: ranges[0].clone(),
            seconds: start.elapsed().as_secs_f64(),
        };
        return (vec![out], vec![t]);
    }
    std::thread::scope(|scope| {
        let work = &work;
        // Spawn every worker before joining any, then join in worker order.
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(w, range)| {
                scope.spawn(move || {
                    let start = Instant::now();
                    let out = work(w, range.clone());
                    (out, WorkerTiming { worker: w, range, seconds: start.elapsed().as_secs_f64() })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).unzip()
    })
}

/// Maps `f` over the job indices `0..jobs` on `threads` workers and
/// returns the results **in job order**, regardless of the pool size —
/// the scheduling primitive behind `bemcap-core`'s batch extraction.
///
/// Jobs are split into contiguous per-worker ranges (the same static
/// partition as Algorithm 1); each worker runs its range in ascending job
/// order and the per-worker result vectors are concatenated in worker
/// order, which restores the input order exactly. The closure receives
/// `(worker_index, job_index)`.
///
/// # Panics
///
/// Panics if `threads == 0` or if any worker panics.
pub fn map_ordered<T, F>(threads: usize, jobs: usize, f: F) -> (Vec<T>, Vec<WorkerTiming>)
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let (parts, timings) =
        run_partitioned(threads, jobs, |w, range| range.map(|job| f(w, job)).collect::<Vec<T>>());
    let mut out = Vec::with_capacity(jobs);
    for part in parts {
        out.extend(part);
    }
    (out, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_partition_correctly() {
        let total = 10_000;
        for threads in [1, 2, 3, 7] {
            let (parts, timings) =
                run_partitioned(threads, total, |_, range| range.map(|k| k as u64).sum::<u64>());
            let sum: u64 = parts.iter().sum();
            assert_eq!(sum, (total as u64 - 1) * total as u64 / 2, "threads={threads}");
            assert_eq!(timings.len(), threads);
            // Ranges tile [0, total).
            assert_eq!(timings[0].range.start, 0);
            assert_eq!(timings.last().unwrap().range.end, total);
        }
    }

    #[test]
    fn workers_have_private_state() {
        // Each worker returns its own vector — no cross-talk.
        let (parts, _) = run_partitioned(4, 100, |w, range| (w, range.len()));
        let ids: Vec<usize> = parts.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let total: usize = parts.iter().map(|p| p.1).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn empty_work_is_fine() {
        let (parts, _) = run_partitioned(3, 0, |_, range| range.len());
        assert_eq!(parts, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn zero_threads_panics() {
        let _ = run_partitioned(0, 10, |_, _| ());
    }

    #[test]
    fn map_ordered_preserves_job_order_for_every_pool_size() {
        for threads in [1, 2, 3, 5, 8] {
            let (out, timings) = map_ordered(threads, 23, |_, job| job * job);
            assert_eq!(out, (0..23).map(|j| j * j).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(timings.len(), threads);
        }
    }

    #[test]
    fn map_ordered_reports_worker_indices() {
        let (out, _) = map_ordered(4, 12, |w, job| (w, job));
        // Contiguous partition: jobs 0..3 on worker 0, 3..6 on 1, ...
        for (slot, (w, job)) in out.iter().enumerate() {
            assert_eq!(*job, slot);
            assert_eq!(*w, slot / 3);
        }
    }

    #[test]
    fn map_ordered_empty_and_fewer_jobs_than_workers() {
        let (out, _) = map_ordered(4, 0, |_, job| job);
        assert!(out.is_empty());
        let (out, _) = map_ordered(8, 3, |_, job| job + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
