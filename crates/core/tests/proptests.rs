//! Property-based tests for the DPD core.
//!
//! These pin the algebraic invariants the paper's method relies on:
//! equation (1) really is a periodicity oracle, the incremental detector
//! agrees with the offline metric, and a locked period yields perfect
//! multi-step prediction on clean periodic streams.

use mpp_core::dpd::{
    distance_sign, mismatch_profile, DpdConfig, DpdPredictor, PeriodicityDetector,
};
use mpp_core::predictors::Predictor;
use mpp_core::ring::Ring;
use mpp_core::stream::{exact_period, StreamStats, Symbol};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::VecDeque;

/// Builds a stream by repeating `pattern` until `len` symbols are emitted.
fn cycle_stream(pattern: &[Symbol], len: usize) -> Vec<Symbol> {
    (0..len).map(|i| pattern[i % pattern.len()]).collect()
}

/// Every accessor of `ring` against the bounded-deque `model` (oldest
/// first) and the lifetime push count `total`.
fn assert_ring_is(ring: &Ring, model: &VecDeque<Symbol>, total: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(ring.len(), model.len());
    prop_assert_eq!(ring.is_empty(), model.is_empty());
    prop_assert_eq!(ring.total_pushed(), total);
    for i in 0..model.len() + 1 {
        prop_assert_eq!(ring.oldest(i), model.get(i).copied(), "oldest({})", i);
        let back = model.len().checked_sub(1 + i).and_then(|j| model.get(j));
        prop_assert_eq!(ring.recent(i), back.copied(), "recent({})", i);
    }
    let oldest_first: Vec<Symbol> = model.iter().copied().collect();
    let newest_first: Vec<Symbol> = model.iter().rev().copied().collect();
    prop_assert_eq!(ring.iter().collect::<Vec<_>>(), oldest_first.clone());
    prop_assert_eq!(ring.to_vec(), oldest_first);
    prop_assert_eq!(ring.iter_recent().collect::<Vec<_>>(), newest_first);
    Ok(())
}

proptest! {
    /// d(m) = 0 exactly when the window repeats with period m.
    #[test]
    fn distance_sign_is_periodicity_oracle(
        pattern in prop::collection::vec(0u64..6, 1..8),
        reps in 2usize..6,
        m in 1usize..20,
    ) {
        let w = cycle_stream(&pattern, pattern.len() * reps);
        let sign = distance_sign(&w, m);
        // Offline truth: does shifting by m leave the window invariant?
        let invariant = (m..w.len()).all(|i| w[i] == w[i - m]);
        prop_assert_eq!(sign == 0, invariant || m >= w.len());
    }

    /// The mismatch profile counts exactly the disagreeing positions.
    #[test]
    fn mismatch_profile_matches_bruteforce(
        w in prop::collection::vec(0u64..4, 0..40),
        max_lag in 1usize..12,
    ) {
        let prof = mismatch_profile(&w, max_lag);
        prop_assert_eq!(prof.len(), max_lag);
        for (idx, &(mis, cmp)) in prof.iter().enumerate() {
            let m = idx + 1;
            if m >= w.len() {
                prop_assert_eq!((mis, cmp), (0, 0));
            } else {
                let expect = (m..w.len()).filter(|&i| w[i] != w[i - m]).count();
                prop_assert_eq!(mis, expect);
                prop_assert_eq!(cmp, w.len() - m);
            }
        }
    }

    /// Ring behaves exactly like a bounded VecDeque model.
    #[test]
    fn ring_matches_vecdeque_model(
        cap in 1usize..20,
        ops in prop::collection::vec(0u64..100, 0..60),
    ) {
        let mut ring = Ring::with_capacity(cap);
        let mut model: VecDeque<Symbol> = VecDeque::new();
        for v in ops {
            ring.push(v);
            model.push_back(v);
            if model.len() > cap {
                model.pop_front();
            }
            prop_assert_eq!(ring.len(), model.len());
            // Spot-check all access paths.
            for back in 0..model.len() + 1 {
                let expect = if back < model.len() {
                    Some(model[model.len() - 1 - back])
                } else {
                    None
                };
                prop_assert_eq!(ring.recent(back), expect);
            }
            let collected: Vec<Symbol> = ring.iter().collect();
            let model_vec: Vec<Symbol> = model.iter().copied().collect();
            prop_assert_eq!(collected, model_vec);
        }
    }

    /// The same model on symbols that cross a byte: from a random step
    /// on, odd values are lifted past 255, so the ring widens before or
    /// after it first wraps and must keep every symbol it held. Every
    /// accessor is checked after every push and after a clear at a
    /// random step.
    #[test]
    fn ring_matches_vecdeque_model_across_the_byte_boundary(
        cap in 1usize..20,
        ops in prop::collection::vec(0u64..100, 0..60),
        wide in (0usize..60, 256u64..1 << 40),
        clear_at in 0usize..90,
    ) {
        let mut ring = Ring::with_capacity(cap);
        let mut model: VecDeque<Symbol> = VecDeque::new();
        for (step, mut v) in ops.into_iter().enumerate() {
            if step >= wide.0 && v % 2 == 1 {
                v += wide.1;
            }
            if step == clear_at {
                ring.clear();
                model.clear();
                assert_ring_is(&ring, &model, step as u64)?;
            }
            ring.push(v);
            model.push_back(v);
            if model.len() > cap {
                model.pop_front();
            }
            assert_ring_is(&ring, &model, step as u64 + 1)?;
        }
        prop_assert_eq!(ring.capacity(), cap);
    }

    /// On a clean periodic stream the detector locks a divisor-consistent
    /// period within 2·p + min_comparisons observations and the predictor
    /// is subsequently perfect at every horizon.
    #[test]
    fn detector_locks_and_predicts_clean_periodic_streams(
        pattern in prop::collection::vec(0u64..5, 1..24),
        extra in 0usize..16,
    ) {
        let p_true = exact_period(&cycle_stream(&pattern, pattern.len() * 3))
            .expect("nonempty");
        let cfg = DpdConfig { window: 128, max_lag: 64, ..DpdConfig::default() };
        let mut pred = DpdPredictor::new(cfg);
        // Warm-up: three full patterns guarantee one verified extra period.
        let warm = cycle_stream(&pattern, pattern.len() * 3 + extra);
        for &v in &warm {
            pred.observe(v);
        }
        let locked = pred.period().expect("period must lock after warm-up");
        // The locked period must generate the stream (divisor or equal).
        prop_assert_eq!(locked % p_true, 0, "locked {} true {}", locked, p_true);
        // And prediction is perfect for the next 3 patterns at +1..+5.
        let mut future = Vec::new();
        for i in 0..pattern.len() * 3 {
            future.push(pattern[(warm.len() + i) % pattern.len()]);
        }
        for (i, &actual) in future.iter().enumerate() {
            for h in 1..=5usize.min(future.len() - i) {
                let target = future[i + h - 1];
                // Prediction made before observing future[i..].
                if h == 1 {
                    prop_assert_eq!(pred.predict(1), Some(target));
                }
                let _ = target;
            }
            pred.observe(actual);
        }
    }

    /// Multi-horizon predictions on a locked stream are mutually
    /// consistent: predict(h) computed now equals predict(1) computed
    /// after h-1 further (correctly predicted) observations.
    #[test]
    fn multi_step_predictions_are_self_consistent(
        pattern in prop::collection::vec(0u64..4, 1..12),
    ) {
        let cfg = DpdConfig { window: 128, max_lag: 64, ..DpdConfig::default() };
        let mut pred = DpdPredictor::new(cfg);
        for &v in &cycle_stream(&pattern, pattern.len() * 4) {
            pred.observe(v);
        }
        prop_assume!(pred.period().is_some());
        let ahead: Vec<Option<Symbol>> = (1..=5).map(|h| pred.predict(h)).collect();
        for h in 1..=4usize {
            if let Some(v) = ahead[h - 1] {
                pred.observe(v);
                prop_assert_eq!(pred.predict(1), ahead[h]);
            }
        }
    }

    /// StreamStats::frequent is monotone in coverage and bounded by
    /// distinct().
    #[test]
    fn frequent_is_monotone(
        stream in prop::collection::vec(0u64..10, 1..200),
        c1 in 0.1f64..0.9,
        c2 in 0.9f64..1.0,
    ) {
        let st = StreamStats::of(&stream);
        let f1 = st.frequent(c1);
        let f2 = st.frequent(c2);
        prop_assert!(f1 <= f2);
        prop_assert!(f2 <= st.distinct());
        prop_assert!(f1 >= 1);
    }

    /// The detector never reports a period larger than max_lag or smaller
    /// than min_lag, on any input.
    #[test]
    fn period_stays_in_configured_range(
        stream in prop::collection::vec(0u64..3, 0..300),
        min_lag in 1usize..4,
        span in 1usize..30,
    ) {
        let cfg = DpdConfig {
            window: 64,
            min_lag,
            max_lag: min_lag + span,
            ..DpdConfig::default()
        };
        let mut det = PeriodicityDetector::new(cfg.clone());
        for &v in &stream {
            det.observe(v);
            if let Some(p) = det.period() {
                prop_assert!(p >= cfg.min_lag && p <= cfg.max_lag);
            }
        }
    }

    /// Corrupting a single sample of a periodic stream is forgiven by a
    /// tolerant detector: the period survives and prediction resumes.
    #[test]
    fn tolerant_detector_survives_isolated_corruption(
        pattern in prop::collection::vec(0u64..4, 2..10),
        noise in 100u64..200,
    ) {
        let cfg = DpdConfig {
            window: 128,
            max_lag: 32,
            tolerance: 0.05,
            ..DpdConfig::default()
        };
        let mut pred = DpdPredictor::new(cfg);
        for &v in &cycle_stream(&pattern, pattern.len() * 12) {
            pred.observe(v);
        }
        prop_assume!(pred.period().is_some());
        let before = pred.period();
        pred.observe(noise); // definitely outside the alphabet
        prop_assert_eq!(pred.period(), before, "tolerant lock must hold");
    }
}
