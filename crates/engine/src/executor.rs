//! Query-time parallelism: a query workload split into one contiguous chunk
//! per worker and run on [`common::parallel_map`], the workspace's one
//! parallel map, so results come back in input order and nothing outlives
//! the call.  With `workers <= 1` (or a single chunk) it runs sequentially
//! on the caller's thread.  Per-shard builds and rebuilds go through the
//! same map.

use common::{QueryContext, QueryStats};

/// Runs a query workload split into up to `workers` contiguous chunks, one
/// fresh [`QueryContext`] per chunk, and returns the per-query results in
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
    let w = workers.clamp(1, queries.len().max(1));
    let chunks: Vec<&[Q]> = queries.chunks(queries.len().div_ceil(w).max(1)).collect();
    let mut out = Vec::with_capacity(queries.len());
    let mut stats = QueryStats::default();
    for (res, s) in common::parallel_map(chunks, w, |qs| {
        let mut cx = QueryContext::new();
        (run(qs, &mut cx), cx.stats)
    }) {
        out.extend(res);
        stats += s;
    }
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
