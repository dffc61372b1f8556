//! The one parallel map: jobs on scoped threads, results in input order.

use std::sync::Mutex;

/// Maps `jobs` through `f` on up to `workers` threads — the calling thread
/// and scoped helpers — each pulling the next job from a shared queue; the
/// results come back in job order.  With `workers <= 1`, or a single job,
/// it runs sequentially on the calling thread.  A panic in `f` is resumed
/// on the calling thread.
pub fn parallel_map<J: Send, T: Send>(
    jobs: Vec<J>,
    workers: usize,
    f: impl Fn(J) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("no worker panics while taking a job")
                .next();
            let Some((i, job)) = next else { break done };
            done.push((i, f(job)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for workers in [1, 2, 4, 16] {
            let out = parallel_map(items.clone(), workers, |i| i * 3);
            assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        assert!(parallel_map(Vec::<u32>::new(), 4, |i| i).is_empty());
        assert_eq!(parallel_map(vec![7u32], 4, |i| i + 1), vec![8]);
    }

    #[test]
    fn a_panicking_job_panics_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..8u32).collect(), 4, |i| {
                assert_ne!(i, 5, "job 5");
                i
            })
        });
        let payload = caught.expect_err("the job's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains("job 5"), "{message}");
    }
}
