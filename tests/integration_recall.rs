//! Recall of the approximate (learned) indices against brute force, mirroring
//! the quality claims of §6.2.3 / §6.2.4 at test scale.

use common::{brute_force, metrics, QueryContext, SpatialIndex};
use datagen::{generate, queries, Distribution};
use registry::{build_index, IndexConfig, IndexKind};

fn rsmi_over(dist: Distribution, n: usize) -> (Vec<geom::Point>, Box<dyn SpatialIndex>) {
    let data = generate(dist, n, 31);
    let cfg = IndexConfig::default()
        .with_block_capacity(50)
        .with_partition_threshold(2_000)
        .with_epochs(30);
    let index = build_index(IndexKind::Rsmi, &data, &cfg);
    (data, index)
}

#[test]
fn window_recall_is_high_across_distributions() {
    for dist in [
        Distribution::Uniform,
        Distribution::skewed_default(),
        Distribution::TigerLike,
    ] {
        let (data, index) = rsmi_over(dist, 8_000);
        let windows = queries::window_queries(
            &data,
            queries::WindowSpec {
                area_percent: 0.05,
                aspect_ratio: 1.0,
            },
            50,
            3,
        );
        let mut cx = QueryContext::new();
        let mut recalls = Vec::new();
        for w in &windows {
            let got = index.window_query(w, &mut cx);
            let truth = brute_force::window_query(&data, w);
            recalls.push(metrics::recall(&got, &truth));
        }
        let avg = metrics::mean(&recalls);
        assert!(
            avg > 0.7,
            "window recall {avg:.3} too low on {} (paper reports > 0.87 at full training)",
            dist.name()
        );
    }
}

#[test]
fn knn_recall_is_high_and_k_points_are_always_returned() {
    let (data, index) = rsmi_over(Distribution::skewed_default(), 8_000);
    let qs = queries::knn_queries(&data, 50, 7);
    let mut cx = QueryContext::new();
    for &k in &[1usize, 5, 25] {
        let mut recalls = Vec::new();
        for q in &qs {
            let got = index.knn_query(q, k, &mut cx);
            assert_eq!(got.len(), k);
            let truth = brute_force::knn_query(&data, q, k);
            recalls.push(metrics::knn_recall(&got, &truth, q, k));
        }
        let avg = metrics::mean(&recalls);
        assert!(avg > 0.75, "kNN recall {avg:.3} too low for k = {k}");
    }
}

#[test]
fn rank_space_ordering_tightens_error_bounds_on_skewed_data() {
    // The paper's central claim (§3.1): rank-space ordering produces an
    // easier-to-learn CDF than ordering raw coordinates, which shows up as
    // tighter leaf-model error bounds on skewed data.  Error bounds are an
    // internal model diagnostic, so the concrete RSMI type is used here.
    use rsmi::{Rsmi, RsmiConfig};
    let data = generate(Distribution::skewed_default(), 6_000, 41);
    let with_rank = Rsmi::build(
        data.clone(),
        RsmiConfig::fast()
            .with_partition_threshold(10_000)
            .with_epochs(30),
    );
    let without_rank = Rsmi::build(
        data,
        RsmiConfig::fast()
            .with_partition_threshold(10_000)
            .with_epochs(30)
            .with_rank_space(false),
    );
    let a = with_rank.stats();
    let b = without_rank.stats();
    let sum_a = a.max_err_below + a.max_err_above;
    let sum_b = b.max_err_below + b.max_err_above;
    assert!(
        sum_a as f64 <= sum_b as f64 * 1.3 + 5.0,
        "rank-space bounds ({sum_a}) should not be materially worse than raw ordering ({sum_b})"
    );
}

#[test]
fn zm_error_bounds_are_wider_than_rsmi_on_skewed_data() {
    // Table 4's qualitative claim: ZM's prediction error (in blocks) is much
    // larger than RSMI's because it learns over raw Z-values.  As above,
    // error bounds require the concrete learned types.
    let data = generate(Distribution::skewed_default(), 10_000, 43);
    let rsmi = rsmi::Rsmi::build(
        data.clone(),
        rsmi::RsmiConfig::default()
            .with_partition_threshold(2_500)
            .with_epochs(30)
            .with_block_capacity(50),
    );
    let zm = baselines::ZOrderModel::build(
        data,
        baselines::zm::ZmConfig {
            block_capacity: 50,
            epochs: 30,
            ..baselines::zm::ZmConfig::default()
        },
    );
    let r = rsmi.stats();
    let (zb, za) = zm.error_bounds_blocks();
    let rsmi_err = r.max_err_below + r.max_err_above;
    let zm_err = zb + za;
    assert!(
        zm_err >= rsmi_err,
        "expected ZM error bounds ({zm_err}) to be at least as wide as RSMI's ({rsmi_err})"
    );
}
