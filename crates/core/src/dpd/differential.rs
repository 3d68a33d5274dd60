//! Differential property test: the dense-counter [`PeriodicityDetector`]
//! against the bit-window detector it replaced ([`reference`]), compared
//! bit for bit after every observation.
//!
//! Configs are arbitrary within validation: `min_lag` above 1, positive
//! tolerances, evidence needs above the window, windows shorter than
//! `max_lag`, and lag counts that are not multiples of 64. Streams are
//! periodic patterns over small alphabets with noise and a phase change.
//! Each case also cuts the new side through a snapshot
//! ([`DpdPredictor::export_state`] → [`DpdPredictor::from_state`], which
//! hydrates the detector) and resets both sides at random steps.

use super::reference;
use super::{DpdConfig, DpdPredictor, PeriodicityDetector};
use crate::predictors::Predictor;
use crate::stream::Symbol;
use proptest::prelude::*;
use proptest::TestCaseError;

/// SplitMix64, so one drawn seed fixes a whole stream.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// `len` symbols of a random pattern of `period` symbols over
/// `alphabet`, with `noise` per mille replaced (by an in-alphabet symbol
/// or one the pattern never uses), switching to a second pattern at a
/// random step.
fn noisy_stream(seed: u64, len: usize, period: usize, alphabet: u64, noise: u64) -> Vec<Symbol> {
    let mut rng = Mix(seed);
    let mut pattern: Vec<Symbol> = (0..period).map(|_| rng.below(alphabet)).collect();
    let switch_at = rng.below(2 * len as u64 + 1) as usize;
    (0..len)
        .map(|i| {
            if i == switch_at {
                let period = 1 + rng.below(2 * period as u64) as usize;
                pattern = (0..period).map(|_| rng.below(alphabet)).collect();
            }
            match rng.below(1000) {
                r if r < noise / 2 => rng.below(alphabet),
                r if r < noise => 100 + rng.below(3),
                _ => pattern[i % pattern.len()],
            }
        })
        .collect()
}

/// Every observable of the two detectors, bit for bit.
fn assert_same(
    new: &PeriodicityDetector,
    old: &reference::PeriodicityDetector,
    step: usize,
) -> Result<(), TestCaseError> {
    let bits = |r: Option<f64>| r.map(f64::to_bits);
    prop_assert_eq!(new.period(), old.period(), "period at step {}", step);
    prop_assert_eq!(
        bits(new.confidence()),
        bits(old.confidence()),
        "confidence at step {}",
        step
    );
    prop_assert_eq!(new.history().len(), old.history().len(), "step {}", step);
    for m in 0..=new.config().max_lag + 1 {
        prop_assert_eq!(
            new.distance(m),
            old.distance(m),
            "d({}) at step {}",
            m,
            step
        );
        prop_assert_eq!(
            bits(new.mismatch_ratio(m)),
            bits(old.mismatch_ratio(m)),
            "ratio at lag {} at step {}",
            m,
            step
        );
    }
    Ok(())
}

/// Feeds `stream` to a fresh predictor and a fresh reference detector,
/// cutting the predictor through its exported state before step `cut`
/// and resetting both before step `reset_at`.
fn run(
    cfg: &DpdConfig,
    stream: &[Symbol],
    cut: usize,
    reset_at: usize,
) -> Result<(), TestCaseError> {
    let mut new = DpdPredictor::new(cfg.clone());
    let mut old = reference::PeriodicityDetector::new(cfg.clone());
    for (step, &v) in stream.iter().enumerate() {
        if step == cut {
            let state = new.export_state();
            new = DpdPredictor::from_state(cfg.clone(), &state);
            prop_assert_eq!(
                new.detector().history().to_vec(),
                old.history().to_vec(),
                "history at the cut, step {}",
                step
            );
            assert_same(new.detector(), &old, step)?;
        }
        if step == reset_at {
            new.reset();
            old.reset();
        }
        new.observe(v);
        old.observe(v);
        assert_same(new.detector(), &old, step)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn dense_counters_match_the_bit_window_detector(
        lags in (1usize..140, 1usize..5),
        window in 1usize..160,
        tolerance in 0.0f64..1.0,
        evidence in (0usize..24, 0.01f64..3.0),
        shape in (1usize..24, 1u64..6, 0u64..300),
        seed in 0u64..u64::MAX,
        len in 0usize..1400,
        cuts in (0usize..1400, 0usize..4200),
    ) {
        let (max_lag, min_lag) = lags;
        let cfg = DpdConfig {
            window,
            max_lag,
            min_lag: min_lag.min(max_lag),
            // Three in ten cases run the exact d(m) = 0 detector, and
            // three in ten a multiple of 1/16, so that a count often
            // sits exactly on the tolerance limit.
            tolerance: match tolerance {
                t if t < 0.3 => 0.0,
                t if t < 0.6 => ((t - 0.3) * 48.0).floor() / 16.0,
                t => (t - 0.6) * 2.25,
            },
            min_comparisons: evidence.0,
            evidence_factor: evidence.1,
        };
        let (period, alphabet, noise) = shape;
        let stream = noisy_stream(seed, len, period, alphabet, noise);
        run(&cfg, &stream, cuts.0, cuts.1)?;
    }
}

/// The two settings the repository serves: the engine's default and the
/// paper's (window 512, `max_lag` 256, tolerance 0.40, evidence 0.125
/// with an 8-comparison floor), on streams long enough to wrap the
/// history many times.
#[test]
fn served_settings_match_on_long_streams() {
    let paper = DpdConfig {
        window: 512,
        max_lag: 256,
        tolerance: 0.40,
        min_comparisons: 8,
        evidence_factor: 0.125,
        ..DpdConfig::default()
    };
    for cfg in [DpdConfig::default(), paper] {
        for (seed, period, noise) in [(1, 18, 0), (2, 37, 40), (3, 160, 5)] {
            let stream = noisy_stream(seed, 3000, period, 5, noise);
            run(&cfg, &stream, 1777, usize::MAX).unwrap();
        }
    }
}
