//! Query-time parallelism: a query workload split into one contiguous chunk
//! per worker, run on `std::thread::scope` threads, so results come back in
//! input order and nothing outlives the call.  With `workers <= 1` (or a
//! single chunk) it degrades to plain sequential execution on the caller's
//! thread.  Per-shard builds and rebuilds go through
//! [`common::parallel_map`].

use common::{QueryContext, QueryStats};

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
