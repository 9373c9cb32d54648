//! Edge-case hardening for [`run_batch`]: degenerate batch sizes,
//! worker-count extremes, deterministic ordering under contention, and
//! panic propagation semantics (threaded pools drain, the in-place
//! single-worker path stops at the panic).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use upsilon_sim::{algo, run_batch, FailurePattern, SeededRandom, SimBuilder};

#[test]
fn zero_jobs_returns_empty_for_any_worker_count() {
    for workers in [0, 1, 4, 64] {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
        assert!(run_batch(jobs, workers).is_empty());
    }
}

#[test]
fn single_job_runs_once_regardless_of_workers() {
    for workers in [0, 1, 2, 16] {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let out = run_batch(
            vec![move || {
                r.fetch_add(1, Ordering::SeqCst);
                42u32
            }],
            workers,
        );
        assert_eq!(out, vec![42]);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}

#[test]
fn fewer_jobs_than_workers() {
    // 3 jobs on 16 workers: the pool must clamp, not hang or drop results.
    let jobs: Vec<_> = (0..3usize).map(|i| move || i * i).collect();
    assert_eq!(run_batch(jobs, 16), vec![0, 1, 4]);
}

#[test]
fn more_jobs_than_workers_keeps_job_order() {
    // Stragglers release workers back to the queue; ordering is by job
    // index, never by completion time.
    let jobs: Vec<_> = (0..41usize)
        .map(|i| {
            move || {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i
            }
        })
        .collect();
    assert_eq!(run_batch(jobs, 3), (0..41).collect::<Vec<_>>());
}

#[test]
fn every_job_runs_exactly_once_under_contention() {
    let counter = Arc::new(AtomicUsize::new(0));
    let jobs: Vec<_> = (0..64usize)
        .map(|i| {
            let c = Arc::clone(&counter);
            move || {
                c.fetch_add(1, Ordering::SeqCst);
                i
            }
        })
        .collect();
    let out = run_batch(jobs, 8);
    assert_eq!(counter.load(Ordering::SeqCst), 64);
    assert_eq!(out, (0..64).collect::<Vec<_>>());
}

#[test]
fn simulation_batches_are_deterministic_across_worker_counts() {
    let batch = |workers: usize| -> Vec<u64> {
        let jobs: Vec<_> = (0..10u64)
            .map(|seed| {
                move || {
                    SimBuilder::<()>::new(FailurePattern::failure_free(3))
                        .adversary(SeededRandom::new(seed))
                        .spawn_all(|pid| {
                            algo(move |mut ctx| async move {
                                ctx.yield_step().await;
                                ctx.decide(pid.index() as u64).await;
                            })
                        })
                        .run()
                        .run
                        .total_steps()
                }
            })
            .collect();
        run_batch(jobs, workers)
    };
    let serial = batch(1);
    assert_eq!(serial, batch(2));
    assert_eq!(serial, batch(8));
}

/// Eight jobs at 2 workers; the jobs in `panics` panic with `"boom {i}"`.
/// Returns the message `run_batch` re-raised and how many jobs completed.
fn run_panicking_batch(panics: &'static [usize]) -> (String, usize) {
    let ran = Arc::new(AtomicUsize::new(0));
    let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
        .map(|i| {
            let r = Arc::clone(&ran);
            Box::new(move || {
                if panics.contains(&i) {
                    panic!("boom {i}");
                }
                r.fetch_add(1, Ordering::SeqCst);
                i
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_batch(jobs, 2)));
    let err = result.expect_err("the job panic must propagate");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    (msg, ran.load(Ordering::SeqCst))
}

#[test]
fn panicking_job_propagates_after_the_pool_drains() {
    // The panic surfaces to the caller with its own payload, but the other
    // jobs still execute: workers drain the queue before it is re-raised.
    let (msg, ran) = run_panicking_batch(&[1]);
    assert_eq!(msg, "boom 1");
    assert_eq!(ran, 7, "remaining jobs still ran");
}

#[test]
fn lowest_indexed_panic_wins_and_every_other_job_runs() {
    // Two panicking jobs at 2 workers: neither panic ends a worker, so the
    // six other jobs all run, and the payload of job 1 (not job 3) surfaces.
    let (msg, ran) = run_panicking_batch(&[1, 3]);
    assert_eq!(msg, "boom 1");
    assert_eq!(ran, 6, "every non-panicking job ran");
}

#[test]
fn panicking_single_job_on_one_worker_also_propagates() {
    // The workers <= 1 fast path runs jobs in place, so the panic arrives
    // directly, without a pool in between.
    let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| panic!("solo boom"))];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_batch(jobs, 1)));
    assert!(result.is_err());
}
