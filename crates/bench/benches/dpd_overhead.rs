//! §4.2 claims the predictor's overhead is small because it is
//! implemented with circular lists. This bench measures the
//! per-observation cost of the incremental detector as the lag range
//! grows, under the paper's settings, on symbols too wide for the
//! ring's byte storage, and on short streams that never leave warm-up,
//! and the cost of producing +1..+5 predictions.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpp_core::dpd::{DpdConfig, DpdPredictor, PeriodicityDetector};
use mpp_core::predictors::Predictor;
use mpp_experiments::experiment_dpd_config;

/// BT.9-like period-18 sender pattern.
const PATTERN: [u64; 18] = [5, 4, 0, 6, 2, 7, 5, 5, 4, 4, 0, 0, 6, 6, 2, 2, 7, 7];

fn stream(len: usize) -> Vec<u64> {
    (0..len).map(|i| PATTERN[i % PATTERN.len()]).collect()
}

/// The same pattern as message sizes of 512 bytes and up: no symbol
/// fits a byte, so the detector's ring stores full-width symbols.
fn wide_stream(len: usize) -> Vec<u64> {
    stream(len).into_iter().map(|s| 512 << s).collect()
}

/// Feeds `data` to a fresh detector; returns the period it ends on.
fn detect(cfg: &DpdConfig, data: &[u64]) -> Option<usize> {
    let mut det = PeriodicityDetector::new(cfg.clone());
    for &v in data {
        det.observe(black_box(v));
    }
    det.period()
}

fn bench_observe(c: &mut Criterion) {
    let data = stream(10_000);
    let wide = wide_stream(data.len());
    let mut g = c.benchmark_group("dpd_observe");
    g.throughput(Throughput::Elements(data.len() as u64));
    for max_lag in [32usize, 128, 256] {
        let cfg = DpdConfig {
            window: max_lag * 2,
            max_lag,
            ..DpdConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(max_lag), &cfg, |b, cfg| {
            b.iter(|| black_box(detect(cfg, &data)));
        });
    }
    // The paper's settings (window 512, max_lag 256, tolerance 0.40,
    // evidence factor 0.125): twice the lags of the engine's default and
    // a tolerant selection.
    g.bench_function("paper_settings", |b| {
        b.iter(|| black_box(detect(&experiment_dpd_config(), &data)));
    });
    g.finish();

    // Each wide arm first checks that it locks the period its narrow
    // twin locks, so the two time the same detection.
    let mut g = c.benchmark_group("dpd_observe_wide");
    g.throughput(Throughput::Elements(wide.len() as u64));
    let lags128 = DpdConfig {
        window: 256,
        max_lag: 128,
        ..DpdConfig::default()
    };
    for (name, cfg) in [
        ("128", lags128),
        ("paper_settings", experiment_dpd_config()),
    ] {
        let period = detect(&cfg, &wide);
        assert_eq!(
            period,
            detect(&cfg, &data),
            "{name}: wide and narrow locks differ"
        );
        assert_eq!(period, Some(PATTERN.len()), "{name}: BT.9's period is 18");
        g.bench_function(name, |b| {
            b.iter(|| black_box(detect(&cfg, &wide)));
        });
    }
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
