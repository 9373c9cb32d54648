//! The run-batch executor: fans independent runs across a small worker
//! pool with deterministic result ordering.
//!
//! Each run is still executed by the single-threaded step engine;
//! parallelism lives *between* runs, never inside one, so
//! determinism is untouched: `results[i]` is always the outcome of
//! `jobs[i]`, regardless of worker count or completion order. This is the
//! sharding/batching layer the exhaustive explorer, fuzz campaigns and the
//! scenario matrix sit on: seeds × schedules × failure patterns in,
//! verdicts out.
//!
//! ```
//! use upsilon_sim::{algo, run_batch, FailurePattern, SeededRandom, SimBuilder};
//!
//! let jobs: Vec<_> = (0..8u64)
//!     .map(|seed| {
//!         move || {
//!             SimBuilder::<()>::new(FailurePattern::failure_free(2))
//!                 .adversary(SeededRandom::new(seed))
//!                 .spawn_all(|pid| {
//!                     algo(move |mut ctx| async move {
//!                         ctx.decide(pid.index() as u64).await;
//!                     })
//!                 })
//!                 .run()
//!                 .run
//!                 .total_steps()
//!         }
//!     })
//!     .collect();
//! let steps = run_batch(jobs, 4);
//! assert_eq!(steps.len(), 8);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of workers [`run_batch`] uses when the caller passes `0`:
/// the machine's available parallelism, capped at 8 (run batches are
/// CPU-bound; more workers than cores only adds scheduling noise).
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Runs every job on a pool of `workers` OS threads (`0` means
/// [`default_workers`]) and returns their results **in job order**.
///
/// Jobs are claimed from a shared queue, so stragglers don't leave workers
/// idle; ordering is restored when results are written back to each job's
/// own slot.
///
/// # Panics
///
/// With `workers <= 1` (after clamping to the job count) jobs run in place
/// on the caller's thread: a panicking job unwinds straight to the caller
/// with its own payload, and the jobs after it never run. With more
/// workers, every job runs even if others panic, and then this function
/// re-raises the original payload of the lowest-indexed panicking job.
pub fn run_batch<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    }
    .min(n);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }

    let queue: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<thread::Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = queue[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each job index is claimed exactly once");
                let out = catch_unwind(AssertUnwindSafe(job));
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            }));
        }
        // Join explicitly: a dropped handle detaches its thread, whose stack
        // may then outlive the call, so a caller that batches round after
        // round (a fuzz campaign) would hold more thread stacks at once and
        // raise its peak RSS.
        for handle in handles {
            handle.join().expect("workers catch every job panic");
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            match slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every job slot is filled once the workers return")
            {
                Ok(out) => out,
                Err(payload) => resume_unwind(payload),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_job_order() {
        let jobs: Vec<_> = (0..100usize).map(|i| move || i * 3).collect();
        let out = run_batch(jobs, 7);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_means_default() {
        let jobs: Vec<_> = (0..5usize).map(|i| move || i).collect();
        assert_eq!(run_batch(jobs, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(run_batch(jobs, 4).is_empty());
    }

    #[test]
    fn single_worker_runs_in_place() {
        let jobs: Vec<_> = (0..4usize).map(|i| move || i + 1).collect();
        assert_eq!(run_batch(jobs, 1), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panic_propagates() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom")),
            Box::new(|| 2),
            Box::new(|| 3),
        ];
        let _ = run_batch(jobs, 2);
    }
}
