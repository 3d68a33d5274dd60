//! §4.2 claims the predictor's overhead is small because it is
//! implemented with circular lists. This bench measures the
//! per-observation cost of the incremental detector as the lag range
//! grows, under the paper's settings, and on short streams that never
//! leave warm-up, and the cost of producing +1..+5 predictions.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpp_core::dpd::{DpdConfig, DpdPredictor, PeriodicityDetector};
use mpp_core::predictors::Predictor;
use mpp_experiments::experiment_dpd_config;

fn stream(len: usize) -> Vec<u64> {
    // BT.9-like period-18 sender pattern.
    let pattern = [5u64, 4, 0, 6, 2, 7, 5, 5, 4, 4, 0, 0, 6, 6, 2, 2, 7, 7];
    (0..len).map(|i| pattern[i % pattern.len()]).collect()
}

fn bench_observe(c: &mut Criterion) {
    let data = stream(10_000);
    let mut g = c.benchmark_group("dpd_observe");
    g.throughput(Throughput::Elements(data.len() as u64));
    for max_lag in [32usize, 128, 256] {
        g.bench_with_input(
            BenchmarkId::from_parameter(max_lag),
            &max_lag,
            |b, &max_lag| {
                let cfg = DpdConfig {
                    window: max_lag * 2,
                    max_lag,
                    ..DpdConfig::default()
                };
                b.iter(|| {
                    let mut det = PeriodicityDetector::new(cfg.clone());
                    for &v in &data {
                        det.observe(black_box(v));
                    }
                    black_box(det.period())
                });
            },
        );
    }
    // The paper's settings (window 512, max_lag 256, tolerance 0.40,
    // evidence factor 0.125): twice the lags of the engine's default and
    // a tolerant selection.
    g.bench_function("paper_settings", |b| {
        b.iter(|| {
            let mut det = PeriodicityDetector::new(experiment_dpd_config());
            for &v in &data {
                det.observe(black_box(v));
            }
            black_box(det.period())
        });
    });
    g.finish();
}

fn bench_observe_short_streams(c: &mut Criterion) {
    // Streams of 120 observations, each on a fresh detector: the whole
    // stream is warm-up (the history never fills), as on IS.4's streams.
    const STREAMS: usize = 80;
    let data = stream(120);
    let mut g = c.benchmark_group("dpd_observe_short");
    g.throughput(Throughput::Elements((STREAMS * data.len()) as u64));
    for (name, cfg) in [
        ("default", DpdConfig::default()),
        ("paper_settings", experiment_dpd_config()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut locked = 0usize;
                for _ in 0..STREAMS {
                    let mut det = PeriodicityDetector::new(cfg.clone());
                    for &v in &data {
                        det.observe(black_box(v));
                    }
                    locked += usize::from(det.period().is_some());
                }
                black_box(locked)
            });
        });
    }
    g.finish();
}

fn bench_predict(c: &mut Criterion) {
    let data = stream(5_000);
    let mut p = DpdPredictor::new(DpdConfig {
        window: 512,
        max_lag: 256,
        ..DpdConfig::default()
    });
    for &v in &data {
        p.observe(v);
    }
    assert!(p.period().is_some());
    c.bench_function("dpd_predict_next5", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for h in 1..=5 {
                if let Some(v) = p.predict(black_box(h)) {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        });
    });
}

fn bench_observe_predict_cycle(c: &mut Criterion) {
    // The full online loop a runtime would run per delivered message.
    let data = stream(10_000);
    let mut g = c.benchmark_group("dpd_online_cycle");
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_function("observe_plus_predict5", |b| {
        b.iter(|| {
            let mut p = DpdPredictor::new(DpdConfig {
                window: 512,
                max_lag: 256,
                ..DpdConfig::default()
            });
            let mut acc = 0u64;
            for &v in &data {
                p.observe(v);
                for h in 1..=5 {
                    if let Some(x) = p.predict(h) {
                        acc = acc.wrapping_add(x);
                    }
                }
            }
            black_box(acc)
        });
    });
    g.finish();
}

/// Short sampling profile so the full suite stays minutes, not hours.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(
    name = benches;
    config = quick();
    targets = bench_observe, bench_observe_short_streams, bench_predict,
        bench_observe_predict_cycle);
criterion_main!(benches);
