//! One queue of independent jobs over the cores.
//!
//! An experiment's scans and a sweep's cells are independent jobs. A fixed
//! set of workers, one per core and the caller among them, pulls their
//! indices from one counter: no thread per job, no job waits for another.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `job` over every element of `jobs` on `min(workers, jobs.len())`
/// threads and return the results in job order. One worker runs them on
/// the calling thread, in order, without spawning; a job's panic is the
/// caller's, payload and all.
pub(crate) fn run<J: Sync, T: Send>(
    jobs: &[J],
    workers: usize,
    job: impl Fn(&J) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(job).collect();
    }
    // A worker pulls indices until it draws one past the end. Relaxed: an
    // index publishes nothing, and results come back through the joins.
    let next = AtomicUsize::new(0);
    let take = |i: usize| Some((i, job(jobs.get(i)?)));
    let pull = || take(next.fetch_add(1, Ordering::Relaxed));
    let work = || Vec::from_iter(std::iter::from_fn(pull));
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in spawned {
            done.extend(h.join().unwrap_or_else(|e| resume_unwind(e)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;
    use std::thread;

    /// Worker counts every property runs at (more than the jobs, too).
    const WORKERS: [usize; 4] = [1, 2, 3, 64];

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<usize> = (0..40).collect();
        for workers in WORKERS {
            // With company, each even job waits for the odd one after it,
            // so the two run on different workers and finish out of order.
            let finished: Vec<AtomicBool> = jobs.iter().map(|_| AtomicBool::new(false)).collect();
            let got = run(&jobs, workers, |&i| {
                let partner = finished.get(i + 1).filter(|_| workers > 1 && i % 2 == 0);
                while partner.is_some_and(|p| !p.load(Ordering::SeqCst)) {
                    thread::yield_now();
                }
                finished[i].store(true, Ordering::SeqCst);
                i * i
            });
            let want: Vec<usize> = jobs.iter().map(|i| i * i).collect();
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        let jobs: Vec<usize> = (0..16).collect();
        for workers in WORKERS {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run(&jobs, workers, |&i| {
                    assert!(i != 11, "job {i} fell over");
                    i
                })
            }));
            let payload = caught.expect_err("the queue must not return");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert_eq!(message, "job 11 fell over", "{workers} workers");
        }
    }

    #[test]
    fn zero_jobs_run_nothing() {
        let got: Vec<()> = run(&[0u8; 0], 8, |_| panic!("there is no job to run"));
        assert!(got.is_empty());
    }

    #[test]
    fn one_worker_runs_inline_in_order() {
        let caller = thread::current().id();
        // One worker asked for, or one job to share among many.
        for (jobs, workers) in [(5, 1), (1, 8)] {
            let jobs: Vec<usize> = (0..jobs).collect();
            let seen = Mutex::new(Vec::new());
            run(&jobs, workers, |&i| {
                assert_eq!(thread::current().id(), caller, "job {i} left the caller");
                seen.lock().unwrap().push(i);
            });
            assert_eq!(seen.into_inner().unwrap(), jobs);
        }
    }
}
