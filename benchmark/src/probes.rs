//! Layer probes: each times one layer's public functions in isolation, on
//! inputs shaped like the ones the workloads feed it.  They need no
//! topology, so every traced run carries them; together with the counts a
//! workload reads off `QueryStats` they say what one call into a layer
//! costs, which the topology differences cannot.

use crate::metrics::Metrics;
use crate::stats::median;
use geom::{Point, Rect};
use std::hint::black_box;
use std::time::Instant;

/// Median over `reps` repetitions of the nanoseconds one of `iters` calls
/// takes.
fn ns_per_iter(reps: usize, iters: usize, mut body: impl FnMut()) -> f64 {
    let per_rep: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_rep).expect("at least one repetition")
}

/// Runs every probe over `points` (the workload's own data).  `smoke`
/// shrinks the working sets so the smoke test stays fast.
pub fn run_all(points: &[Point], smoke: bool, m: &mut Metrics) {
    sfc_probes(points, m);
    mlp_probes(points, smoke, m);
    storage_probes(points, smoke, m);
    obs_probes(m);
    net_codec_probes(points, m);
    let crc_len = if smoke { 1 << 20 } else { 16 << 20 };
    let buf: Vec<u8> = (0..crc_len).map(|i| (i * 31 + 7) as u8).collect();
    let ns_per_byte = ns_per_iter(5, buf.len(), || {
        black_box(persist::crc32(black_box(&buf)));
    });
    m.set("persist.crc32_gb_per_s", 1.0 / ns_per_byte);
}

fn sfc_probes(points: &[Point], m: &mut Metrics) {
    let order = 20;
    let side = (1u64 << order) as f64 - 1.0;
    let cells: Vec<(u32, u32)> = points
        .iter()
        .take(100_000)
        .map(|p| ((p.x * side) as u32, (p.y * side) as u32))
        .collect();
    m.set(
        "sfc.hilbert_encode_ns",
        ns_per_iter(5, cells.len(), || {
            let mut acc = 0u64;
            for &(x, y) in &cells {
                acc ^= sfc::hilbert::encode(x, y, order);
            }
            black_box(acc);
        }),
    );
    let sample = &points[..points.len().min(100_000)];
    let ns = ns_per_iter(3, 1, || {
        let rs = sfc::rank_space::RankSpace::new(black_box(sample));
        black_box(rs.curve_values(sfc::CurveKind::Hilbert));
    });
    m.set(
        "sfc.rank_space_ms_per_100k",
        ns / 1e6 * (100_000.0 / sample.len() as f64),
    );
}

/// One RSMI leaf model: B = 100 blocks' worth of classes, the index's
/// default epochs and learning rate.
fn mlp_probes(points: &[Point], smoke: bool, m: &mut Metrics) {
    let cfg = registry::IndexConfig::default();
    let rows = if smoke { 1_000 } else { 10_000 }.min(points.len());
    let mut sample: Vec<Point> = points[..rows].to_vec();
    sample.sort_by(|a, b| a.x.total_cmp(&b.x));
    let inputs: Vec<Vec<f64>> = sample.iter().map(|p| vec![p.x, p.y]).collect();
    let targets: Vec<u64> = (0..rows).map(|i| (i / cfg.block_capacity) as u64).collect();
    let mut mlp_cfg = mlp::MlpConfig::for_coordinates(rows / cfg.block_capacity);
    mlp_cfg.epochs = cfg.epochs;
    mlp_cfg.learning_rate = cfg.learning_rate;
    let t = Instant::now();
    let model = mlp::ScaledRegressor::fit(mlp_cfg, &inputs, &targets);
    m.set(
        "mlp.fit_ms_per_10k_rows",
        t.elapsed().as_secs_f64() * 1e3 * (10_000.0 / rows as f64),
    );
    m.set(
        "mlp.predict_ns",
        ns_per_iter(5, rows, || {
            let mut acc = 0u64;
            for p in &sample {
                acc = acc.wrapping_add(model.predict_xy(p.x, p.y));
            }
            black_box(acc);
        }),
    );
}

/// Streams B = 100 SoA blocks from an arena far larger than L2 (64 MB), so
/// every block arrives cold, as it does under a 1 M-point index.
fn storage_probes(points: &[Point], smoke: bool, m: &mut Metrics) {
    let capacity = registry::IndexConfig::default().block_capacity;
    let arena_bytes: usize = if smoke { 1 << 20 } else { 64 << 20 };
    let n_blocks = arena_bytes / (capacity * 24);
    let mut src = points.iter().cycle();
    let blocks: Vec<storage::Block> = (0..n_blocks)
        .map(|_| {
            let mut b = storage::Block::new(capacity);
            for _ in 0..capacity {
                b.push(*src.next().expect("points is not empty"));
            }
            b
        })
        .collect();
    // A window and a radius around one data point, the size of the default
    // 0.01 % window: most blocks contribute no survivor, as in a real scan.
    let c = points[points.len() / 2];
    let rect = Rect::centered(c.x, c.y, 0.01, 0.01);
    m.set(
        "storage.rect_mask_ns_per_block",
        ns_per_iter(3, n_blocks, || {
            let mut hits = 0u64;
            for b in &blocks {
                b.for_each_in_rect(&rect, |_| hits += 1);
            }
            black_box(hits);
        }),
    );
    m.set(
        "storage.within_mask_ns_per_block",
        ns_per_iter(3, n_blocks, || {
            let mut hits = 0u64;
            for b in &blocks {
                b.for_each_within(&c, 0.005 * 0.005, |_, _| hits += 1);
            }
            black_box(hits);
        }),
    );
    m.set(
        "storage.dist_sq_ns_per_block",
        ns_per_iter(3, n_blocks, || {
            let mut acc = 0.0f64;
            for b in &blocks {
                b.for_each_dist_sq(&c, |_, d| acc += d);
            }
            black_box(acc);
        }),
    );
}

fn obs_probes(m: &mut Metrics) {
    let telemetry = obs::Telemetry::new();
    let counter = telemetry.metrics.counter("probe.counter");
    let histogram = telemetry.metrics.histogram("probe.histogram");
    let iters = 1_000_000;
    m.set(
        "obs.counter_inc_ns",
        ns_per_iter(5, iters, || {
            for _ in 0..iters {
                black_box(&counter).inc();
            }
        }),
    );
    m.set(
        "obs.histogram_record_ns",
        ns_per_iter(5, iters, || {
            for i in 0..iters as u64 {
                black_box(&histogram).record(100 + (i & 0xff));
            }
        }),
    );
}

/// Codec and framing cost of one window request and its ~20-point answer
/// (what the default 0.01 % window returns at 200 k points), against an
/// in-memory pipe: no socket, no syscall.
fn net_codec_probes(points: &[Point], m: &mut Metrics) {
    use net::wire::{read_frame, write_frame};
    use net::{Request, Response};
    let iters = 20_000;
    let request = Request::Window(Rect::centered(0.5, 0.5, 0.01, 0.01));
    let request_bytes = request.encode();
    let response = Response::Points {
        seq: 7,
        points: points[..points.len().min(20)].to_vec(),
    };
    let response_bytes = response.encode();
    m.set(
        "net.request_encode_ns",
        ns_per_iter(5, iters, || {
            for _ in 0..iters {
                black_box(black_box(&request).encode());
            }
        }),
    );
    m.set(
        "net.request_decode_ns",
        ns_per_iter(5, iters, || {
            for _ in 0..iters {
                black_box(Request::decode(black_box(&request_bytes)).expect("own encoding"));
            }
        }),
    );
    m.set(
        "net.response_encode_ns.window",
        ns_per_iter(5, iters, || {
            for _ in 0..iters {
                black_box(black_box(&response).encode());
            }
        }),
    );
    m.set(
        "net.response_decode_ns.window",
        ns_per_iter(5, iters, || {
            for _ in 0..iters {
                black_box(Response::decode(black_box(&response_bytes)).expect("own encoding"));
            }
        }),
    );
    let mut pipe: Vec<u8> = Vec::with_capacity(response_bytes.len() + 64);
    m.set(
        "net.frame_write_read_ns",
        ns_per_iter(5, iters, || {
            for _ in 0..iters {
                pipe.clear();
                write_frame(&mut pipe, black_box(&response_bytes)).expect("in-memory write");
                let payload = read_frame(&mut pipe.as_slice()).expect("own frame");
                black_box(payload);
            }
        }),
    );
}
