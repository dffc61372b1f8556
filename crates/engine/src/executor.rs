//! Scoped worker-pool helpers for build- and query-time parallelism.
//!
//! Both helpers split their input into one contiguous chunk per worker and
//! run the chunks on `std::thread::scope` threads, so results come back in
//! input order and nothing outlives the call — no queues, no shared mutable
//! state, no extra dependencies.  With `workers <= 1` (or a single chunk)
//! they degrade to plain sequential execution on the caller's thread.

use common::{QueryContext, QueryStats};

/// Applies `f` to every item, using up to `workers` scoped threads, and
/// returns the results in input order.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let w = workers.max(1).min(n.max(1));
    if w <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(w);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(w);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(chunk.min(items.len()));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    let f = &f;
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("worker thread panicked"));
        }
    });
    out
}

/// Runs a query workload split across up to `workers` scoped threads, one
/// fresh [`QueryContext`] per worker, and returns the per-query results in
/// input order together with the merged statistics.
///
/// Any caller's parallel batch runs through this: every index is `Sync`, so
/// every worker queries it concurrently while charging costs to its own
/// context.
pub fn run_batch<Q, R, F>(queries: &[Q], workers: usize, run: F) -> (Vec<R>, QueryStats)
where
    Q: Sync,
    R: Send,
    F: Fn(&[Q], &mut QueryContext) -> Vec<R> + Sync,
{
    let n = queries.len();
    let w = workers.max(1).min(n.max(1));
    if w <= 1 {
        let mut cx = QueryContext::new();
        let out = run(queries, &mut cx);
        return (out, cx.stats);
    }
    let chunk = n.div_ceil(w);
    let run = &run;
    let mut out = Vec::with_capacity(n);
    let mut stats = QueryStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                scope.spawn(move || {
                    let mut cx = QueryContext::new();
                    let res = run(qs, &mut cx);
                    (res, cx.stats)
                })
            })
            .collect();
        for h in handles {
            let (res, s) = h.join().expect("worker thread panicked");
            out.extend(res);
            stats += s;
        }
    });
    (out, stats)
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
    fn run_batch_merges_worker_stats_and_keeps_order() {
        let queries: Vec<u64> = (0..50).collect();
        for workers in [1, 3, 8] {
            let (out, stats) = run_batch(&queries, workers, |qs, cx| {
                qs.iter()
                    .map(|&q| {
                        cx.count_block();
                        cx.count_candidates(2);
                        q * 10
                    })
                    .collect()
            });
            assert_eq!(out, queries.iter().map(|q| q * 10).collect::<Vec<_>>());
            assert_eq!(stats.blocks_touched, 50, "workers = {workers}");
            assert_eq!(stats.candidates_scanned, 100);
        }
    }
}
