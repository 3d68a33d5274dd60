//! Incremental sliding-window periodicity detection.
//!
//! [`PeriodicityDetector`] maintains, for every candidate lag `m`, the
//! exact number of mismatching comparisons among the last `N` comparisons
//! at that lag, as one dense `u16` counter per lag. Each observation costs
//! two compare passes over the retained history, O(`max_lag`) each: one
//! adds the new symbol's mismatch against `x[t−m]` to every lag, the other
//! takes off the comparison that leaves each full window,
//! `x[t−N]` against `x[t−N−m]`, recomputed from the history rather than
//! stored. The history ring (`N + max_lag` symbols) is the only other
//! state. It stores one byte per symbol while every symbol it has held
//! fits one, as the engine's dense ids do until a stream interns its
//! 257th symbol, and a full `u64` from then on; `observe` branches on
//! that width once and runs one body per width. With the default
//! settings a detector's heap is 640 bytes byte-wide (each compare pass
//! reads 128 bytes of history) and about 3.3 KB wide (1 KiB per pass).
//! This is the "circular lists" implementation whose low overhead §4.2
//! emphasises (benchmarked in `mpp-bench`).
//!
//! Detection policy: a lag `m` is *eligible* when it has accumulated at
//! least `max(⌈m·evidence_factor⌉, min_comparisons)` comparisons ("a
//! sample of the pattern has to be seen by the predictor for learning",
//! §5.1) and its windowed mismatch ratio is within `tolerance`. With
//! `tolerance = 0` this is exactly the paper's `d(m) = 0` criterion. A
//! positive tolerance lets the detector hold on to a period on *physical*
//! streams where isolated arrival reorderings would otherwise poison the
//! whole window.
//!
//! Among eligible lags the detector reports the one with the cleanest
//! window (minimal mismatch ratio), ties broken toward the smaller lag —
//! so exact periodicity always wins over incidental short-range
//! repetition, and the fundamental period wins over its multiples.
//!
//! Two facts keep selection cheap. The evidence need grows with `m` while
//! the comparisons made shrink with it, so the lags with enough evidence
//! form a prefix that only grows as the history fills. And once the
//! history is full every lag's window holds exactly `N` comparisons: the
//! ratios share one denominator and order like the integer counts, so the
//! period is the first smallest counter of that prefix. Only warm-up, with
//! the history still filling, compares ratios lag by lag.

use crate::ring::{Recent, Ring, Width};
use crate::stream::Symbol;

/// Tuning knobs for the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DpdConfig {
    /// `N`: number of recent comparisons (per lag) forming the window of
    /// equation (1). At most 65 535, the range of a lag's counter.
    pub window: usize,
    /// `M`: largest candidate period, exclusive upper bound is `max_lag + 1`.
    pub max_lag: usize,
    /// Smallest candidate period (usually 1).
    pub min_lag: usize,
    /// Fraction of mismatching comparisons tolerated within the window
    /// before a lag stops counting as periodic. `0.0` reproduces the exact
    /// sign metric of the paper.
    pub tolerance: f64,
    /// Floor on the number of comparisons a lag needs before it may be
    /// declared periodic.
    pub min_comparisons: usize,
    /// How much evidence a lag needs relative to its own length: lag `m`
    /// requires `max(min_comparisons, ⌈m · evidence_factor⌉)` comparisons
    /// before it may be declared periodic. `1.0` (the default) means one
    /// full extra period must be verified — the conservative choice.
    /// Smaller values lock faster at the cost of occasional premature
    /// locks; the paper's warm-up behaviour (IS.4 at ≈ 80 % *because* the
    /// stream is short, everything else ≈ 100 %) corresponds to a small
    /// factor.
    pub evidence_factor: f64,
}

impl Default for DpdConfig {
    fn default() -> Self {
        DpdConfig {
            window: 256,
            max_lag: 128,
            min_lag: 1,
            tolerance: 0.0,
            min_comparisons: 2,
            evidence_factor: 1.0,
        }
    }
}

impl DpdConfig {
    /// Validates invariants, panicking with a descriptive message on
    /// nonsensical configurations. Called by the detector constructor,
    /// and by the engine's config validation so a bad config fails where
    /// the engine is built.
    pub fn validate(&self) {
        assert!(self.window > 0, "window must be positive");
        assert!(
            self.window <= usize::from(u16::MAX),
            "window must not exceed {} (a lag's mismatch counter is 16-bit), got {}",
            u16::MAX,
            self.window
        );
        assert!(self.max_lag > 0, "max_lag must be positive");
        assert!(
            self.min_lag > 0,
            "min_lag must be positive (period 0 is meaningless)"
        );
        assert!(
            self.min_lag <= self.max_lag,
            "min_lag ({}) must not exceed max_lag ({})",
            self.min_lag,
            self.max_lag
        );
        assert!(
            (0.0..1.0).contains(&self.tolerance),
            "tolerance must be in [0, 1), got {}",
            self.tolerance
        );
        assert!(
            self.evidence_factor > 0.0,
            "evidence_factor must be positive, got {}",
            self.evidence_factor
        );
    }

    /// Comparisons lag `m` needs before it may be declared periodic:
    /// `max(⌈m · evidence_factor⌉, min_comparisons)`, at least 1 and
    /// non-decreasing in `m`.
    fn evidence_need(&self, m: usize) -> usize {
        ((m as f64 * self.evidence_factor).ceil() as usize).max(self.min_comparisons)
    }
}

/// Online periodicity detector over a symbol stream.
#[derive(Debug, Clone)]
pub struct PeriodicityDetector {
    cfg: DpdConfig,
    /// Recent raw symbols; sized `window + max_lag` so both comparison
    /// partners and prediction sources stay addressable. Byte-wide until
    /// a symbol above 255 arrives.
    history: Ring,
    /// `mismatches[i]`: mismatching comparisons among the last
    /// `min(window, history.len() − m)` at lag `m = min_lag + i`. The
    /// comparison count is derived from the ring's length, never stored,
    /// so replaying a retained history rebuilds it exactly.
    mismatches: Box<[u16]>,
    /// Lags `min_lag .. min_lag + ready` have their evidence need met.
    ready: usize,
    current: Option<usize>,
    observations: u64,
}

impl PeriodicityDetector {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: DpdConfig) -> Self {
        cfg.validate();
        PeriodicityDetector {
            history: Ring::with_capacity(cfg.window + cfg.max_lag),
            mismatches: vec![0; cfg.max_lag - cfg.min_lag + 1].into_boxed_slice(),
            ready: 0,
            current: None,
            cfg,
            observations: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DpdConfig {
        &self.cfg
    }

    /// Rebuilds a detector from a serialized history window — the
    /// snapshot/restore path.
    ///
    /// `history` is the retained ring contents oldest-first (at most
    /// `window + max_lag` symbols), `observations` the original
    /// lifetime observation count, and `history_total` the original
    /// ring's lifetime push count. Replaying the retained window is
    /// *exact*, not approximate: the ring keeps `window + max_lag`
    /// symbols, so for every lag `m` the replay regenerates at least
    /// the last `window` comparisons at that lag — precisely the
    /// comparisons the original counters held — and the mismatch
    /// counters, the locked period, and all future behaviour recompute
    /// bit-identically. Comparison counts follow the ring's length, so
    /// the lifetime counters, which this constructor sets afterwards,
    /// cannot disturb them.
    ///
    /// # Panics
    /// Panics if `history` is longer than `window + max_lag`.
    pub fn hydrate(
        cfg: DpdConfig,
        history: &[Symbol],
        observations: u64,
        history_total: u64,
    ) -> Self {
        let mut det = PeriodicityDetector::new(cfg);
        assert!(
            history.len() <= det.history.capacity(),
            "hydrate history ({} symbols) exceeds the ring capacity ({})",
            history.len(),
            det.history.capacity()
        );
        for &v in history {
            det.observe(v);
        }
        det.observations = observations;
        det.history.set_total_pushed(history_total);
        det
    }

    /// Total number of observations fed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The stored symbol history (newest last), for prediction and debug.
    pub fn history(&self) -> &Ring {
        &self.history
    }

    /// Feeds one stream symbol and updates the detected period.
    pub fn observe(&mut self, v: Symbol) {
        // Widen first, so both compare passes and the push see one width.
        self.history.widen_for(v);
        let (counts, window, min_lag) = (&mut *self.mismatches, self.cfg.window, self.cfg.min_lag);
        match self.history.width() {
            // The ring is still narrow, so `v` fits a byte.
            Width::Narrow(h) => compare(counts, h, v as u8, window, min_lag),
            Width::Wide(h) => compare(counts, h, v, window, min_lag),
        }
        self.history.push(v);
        self.observations += 1;
        self.update_current();
    }

    /// The detected period, if the stream is currently periodic.
    pub fn period(&self) -> Option<usize> {
        self.current
    }

    /// Equation (1) for lag `m` over the current window: `Some(0)` when all
    /// windowed comparisons at that lag match, `Some(1)` otherwise. `None`
    /// when `m` is outside the configured lag range.
    pub fn distance(&self, m: usize) -> Option<u8> {
        let i = self.lag_index(m)?;
        Some(u8::from(self.mismatches[i] > 0))
    }

    /// Fraction of mismatching comparisons in the window at lag `m`;
    /// `None` outside the lag range or before any comparison happened.
    pub fn mismatch_ratio(&self, m: usize) -> Option<f64> {
        let i = self.lag_index(m)?;
        let n = self.comparisons(m);
        if n == 0 {
            return None;
        }
        Some(f64::from(self.mismatches[i]) / n as f64)
    }

    /// Confidence in the current lock: `1 − mismatch ratio` of the locked
    /// lag's window, `None` while no period is locked. On clean streams
    /// this is 1.0; on physical streams it approximates the expected
    /// copy-prediction accuracy, so runtime policies can weigh how much
    /// memory to bet on a forecast (§2.1's "allocate only what is really
    /// needed").
    pub fn confidence(&self) -> Option<f64> {
        let p = self.current?;
        self.mismatch_ratio(p).map(|r| 1.0 - r)
    }

    /// Resets all stream state, keeping the configuration.
    pub fn reset(&mut self) {
        self.history.clear();
        self.mismatches.fill(0);
        self.ready = 0;
        self.current = None;
        self.observations = 0;
    }

    fn lag_index(&self, m: usize) -> Option<usize> {
        if m < self.cfg.min_lag || m > self.cfg.max_lag {
            return None;
        }
        Some(m - self.cfg.min_lag)
    }

    /// Comparisons in lag `m`'s window: `min(window, len − m)`, where
    /// `len` is the number of retained symbols.
    fn comparisons(&self, m: usize) -> usize {
        self.history.len().saturating_sub(m).min(self.cfg.window)
    }

    /// Chooses the eligible lag with the cleanest window — minimal
    /// mismatch ratio, ties broken toward the smallest lag. Exact ties at
    /// ratio 0 therefore resolve to the fundamental period rather than a
    /// multiple, and a long constant *run* inside a larger pattern (ratio
    /// slightly above 0 at lag 1 because of run boundaries in the window)
    /// does not steal the lock from the true period (ratio exactly 0).
    fn update_current(&mut self) {
        // Needs rise with m and comparisons fall with it, so the lags
        // with enough evidence are a prefix; extend it as the ring fills.
        while self.ready < self.mismatches.len() {
            let m = self.cfg.min_lag + self.ready;
            if self.comparisons(m) < self.cfg.evidence_need(m) {
                break;
            }
            self.ready += 1;
        }
        self.current = if self.history.len() == self.history.capacity() {
            self.cleanest_full()
        } else {
            self.cleanest_filling()
        };
    }

    /// Selection once the history is full. Every window then holds
    /// `window` comparisons: the ratios share one denominator, and
    /// correctly rounded division by it keeps distinct counts distinct
    /// and in order. So the first smallest counter is the cleanest lag,
    /// and it is eligible exactly when its ratio passes the same f64
    /// tolerance test [`Self::cleanest_filling`] applies.
    fn cleanest_full(&self) -> Option<usize> {
        let counts = &self.mismatches[..self.ready];
        // A fold, unlike `Iterator::min`, compiles to a vector reduction.
        // With no lag ready, `least` stays above any tolerance limit.
        let least = counts.iter().fold(u16::MAX, |a, &c| a.min(c));
        if f64::from(least) > self.cfg.tolerance * self.cfg.window as f64 {
            return None;
        }
        let i = counts.iter().position(|&c| c == least)?;
        Some(self.cfg.min_lag + i)
    }

    /// Selection while the history fills: window sizes differ by lag, so
    /// ratios are compared one lag at a time.
    fn cleanest_filling(&self) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (i, &c) in self.mismatches[..self.ready].iter().enumerate() {
            let m = self.cfg.min_lag + i;
            let n = self.comparisons(m) as f64;
            if f64::from(c) > self.cfg.tolerance * n {
                continue;
            }
            let ratio = f64::from(c) / n;
            match best {
                Some((r, _)) if r <= ratio => {}
                _ => best = Some((ratio, m)),
            }
            if ratio == 0.0 {
                // Nothing can beat a clean window at a smaller lag.
                break;
            }
        }
        best.map(|(_, m)| m)
    }
}

/// The two compare passes of one observation of `v`, over the history
/// as the ring stores it: one body per storage width.
#[inline]
fn compare<T: Copy + PartialEq>(
    counts: &mut [u16],
    history: Recent<'_, T>,
    v: T,
    window: usize,
    min_lag: usize,
) {
    let lags = counts.len();
    // Before the push, get(k) is x[t−1−k]. The comparison leaving lag
    // m's window is x[t−window] = get(window − 1) against
    // x[t−window−m] = get(window − 1 + m); it exists exactly when that
    // window was full.
    if let Some(leaving) = history.get(window - 1) {
        let partners = history.slices(window - 1 + min_lag, lags);
        tally(counts, leaving, partners, u16::wrapping_sub);
    }
    // The new comparison at lag m: v against x[t−m] = get(m − 1).
    tally(
        counts,
        v,
        history.slices(min_lag - 1, lags),
        u16::wrapping_add,
    );
}

/// Applies `op` (add or subtract) to each lag's counter with the mismatch
/// of `x` against that lag's partner. `partners` holds the partners of
/// the first lags in order, as the ring's two contiguous runs; lags past
/// their end have no partner yet and keep their counts.
#[inline]
fn tally<T: Copy + PartialEq>(
    counts: &mut [u16],
    x: T,
    (near, far): (&[T], &[T]),
    op: impl Fn(u16, u16) -> u16,
) {
    let (first, rest) = counts.split_at_mut(near.len());
    for (c, &p) in first.iter_mut().zip(near) {
        *c = op(*c, u16::from(p != x));
    }
    for (c, &p) in rest.iter_mut().zip(far) {
        *c = op(*c, u16::from(p != x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_cycles(det: &mut PeriodicityDetector, pattern: &[Symbol], cycles: usize) {
        for _ in 0..cycles {
            for &v in pattern {
                det.observe(v);
            }
        }
    }

    #[test]
    fn detects_simple_period() {
        let mut det = PeriodicityDetector::new(DpdConfig::default());
        feed_cycles(&mut det, &[3, 1, 4, 1, 5], 10);
        assert_eq!(det.period(), Some(5));
        assert_eq!(det.distance(5), Some(0));
        assert_eq!(det.distance(4), Some(1));
        assert_eq!(det.mismatch_ratio(5), Some(0.0));
    }

    #[test]
    fn reports_fundamental_not_multiple() {
        let mut det = PeriodicityDetector::new(DpdConfig::default());
        feed_cycles(&mut det, &[7, 8, 7, 8, 7, 8], 10); // period 2, fed in 6-blocks
        assert_eq!(det.period(), Some(2));
    }

    #[test]
    fn constant_stream_is_period_one() {
        let mut det = PeriodicityDetector::new(DpdConfig::default());
        for _ in 0..10 {
            det.observe(42);
        }
        assert_eq!(det.period(), Some(1));
    }

    #[test]
    fn aperiodic_stream_stays_undetected() {
        let cfg = DpdConfig {
            max_lag: 16,
            window: 64,
            ..DpdConfig::default()
        };
        let mut det = PeriodicityDetector::new(cfg);
        // Strictly increasing stream: no lag can ever match.
        for v in 0..200u64 {
            det.observe(v);
        }
        assert_eq!(det.period(), None);
        assert_eq!(det.distance(1), Some(1));
    }

    #[test]
    fn needs_full_extra_period_before_locking() {
        let mut det = PeriodicityDetector::new(DpdConfig::default());
        // One instance of the pattern: not enough evidence for lag 4.
        for &v in &[1u64, 2, 3, 4] {
            det.observe(v);
        }
        assert_eq!(det.period(), None);
        // Second instance: after 4 more matching comparisons lag 4 locks.
        for &v in &[1u64, 2, 3, 4] {
            det.observe(v);
        }
        assert_eq!(det.period(), Some(4));
    }

    #[test]
    fn exact_mode_drops_period_on_corruption() {
        let mut det = PeriodicityDetector::new(DpdConfig {
            window: 32,
            max_lag: 8,
            ..DpdConfig::default()
        });
        feed_cycles(&mut det, &[1, 2], 20);
        assert_eq!(det.period(), Some(2));
        det.observe(99); // corruption
        assert_eq!(det.period(), None, "exact mode must drop the period");
        // After the corruption slides out of all lag windows, it re-locks.
        feed_cycles(&mut det, &[2, 1], 20);
        assert_eq!(det.period(), Some(2));
    }

    #[test]
    fn tolerant_mode_holds_period_through_noise() {
        let mut det = PeriodicityDetector::new(DpdConfig {
            window: 64,
            max_lag: 8,
            tolerance: 0.15,
            ..DpdConfig::default()
        });
        feed_cycles(&mut det, &[1, 2, 3, 4], 20);
        assert_eq!(det.period(), Some(4));
        det.observe(99); // isolated corruption
        assert_eq!(
            det.period(),
            Some(4),
            "tolerant mode should hold the period through one bad sample"
        );
    }

    #[test]
    fn phase_change_relearns() {
        let mut det = PeriodicityDetector::new(DpdConfig {
            window: 16,
            max_lag: 8,
            ..DpdConfig::default()
        });
        feed_cycles(&mut det, &[1, 2, 3], 10);
        assert_eq!(det.period(), Some(3));
        // Switch to a different period; after the window flushes the
        // detector follows.
        feed_cycles(&mut det, &[5, 6], 20);
        assert_eq!(det.period(), Some(2));
    }

    #[test]
    fn min_lag_excludes_small_periods() {
        let mut det = PeriodicityDetector::new(DpdConfig {
            min_lag: 2,
            ..DpdConfig::default()
        });
        for _ in 0..20 {
            det.observe(5);
        }
        // Period 1 is outside the candidate range; period 2 also fits a
        // constant stream and is the smallest candidate.
        assert_eq!(det.period(), Some(2));
        assert_eq!(det.distance(1), None);
        assert_eq!(det.mismatch_ratio(1), None);
    }

    #[test]
    fn reset_clears_everything() {
        let mut det = PeriodicityDetector::new(DpdConfig::default());
        feed_cycles(&mut det, &[1, 2], 10);
        assert!(det.period().is_some());
        det.reset();
        assert_eq!(det.period(), None);
        assert_eq!(det.observations(), 0);
        assert!(det.history().is_empty());
    }

    #[test]
    fn incremental_matches_offline_profile() {
        use crate::dpd::distance::mismatch_profile;
        // Pseudo-random-ish but deterministic stream with embedded period.
        let mut stream = Vec::new();
        for i in 0..300u64 {
            stream.push(if i % 17 == 0 { 9 } else { i % 6 });
        }
        let cfg = DpdConfig {
            window: 64,
            max_lag: 32,
            ..DpdConfig::default()
        };
        let mut det = PeriodicityDetector::new(cfg.clone());
        for &v in &stream {
            det.observe(v);
        }
        // Offline: for each lag, the last `window` comparisons are those at
        // positions i in (len-window..len) — reconstruct and compare.
        for m in 1..=cfg.max_lag {
            let len = stream.len();
            let lo = len.saturating_sub(cfg.window).max(m);
            let mismatches = (lo..len).filter(|&i| stream[i] != stream[i - m]).count();
            let ratio = mismatches as f64 / (len - lo) as f64;
            let got = det.mismatch_ratio(m).unwrap();
            assert!(
                (got - ratio).abs() < 1e-12,
                "lag {m}: incremental {got} vs offline {ratio}"
            );
        }
        // And the sign metric agrees with the documented offline function on
        // the trailing window of raw symbols.
        let tail = &stream[stream.len() - cfg.window..];
        let prof = mismatch_profile(tail, 8);
        for m in 1..=8 {
            let offline_sign = u8::from(prof[m - 1].0 > 0);
            // Signs can differ only because the incremental window covers
            // `window` comparisons, not `window - m`; allow offline 0 →
            // incremental 0-or-1 but never offline 1 → incremental 0.
            if offline_sign == 1 {
                assert_eq!(det.distance(m), Some(1), "lag {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "min_lag")]
    fn invalid_config_panics() {
        let _ = PeriodicityDetector::new(DpdConfig {
            min_lag: 10,
            max_lag: 5,
            ..DpdConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "evidence_factor")]
    fn zero_evidence_factor_panics() {
        let _ = PeriodicityDetector::new(DpdConfig {
            evidence_factor: 0.0,
            ..DpdConfig::default()
        });
    }

    #[test]
    fn hydrate_reproduces_the_detector_exactly() {
        // Long stream (history saturated and wrapped), awkward window
        // sizes, and a mid-pattern cut: the hydrated detector must
        // agree with the original on every observable *and* on all
        // future behaviour.
        let cfg = DpdConfig {
            window: 24,
            max_lag: 7,
            tolerance: 0.2,
            ..DpdConfig::default()
        };
        let mut orig = PeriodicityDetector::new(cfg.clone());
        for i in 0..500u64 {
            orig.observe(if i % 31 == 0 { 99 } else { i % 5 });
        }
        let mut copy = PeriodicityDetector::hydrate(
            cfg.clone(),
            &orig.history().to_vec(),
            orig.observations(),
            orig.history().total_pushed(),
        );
        assert_eq!(copy.period(), orig.period());
        assert_eq!(copy.confidence(), orig.confidence());
        assert_eq!(copy.observations(), orig.observations());
        assert_eq!(copy.history().total_pushed(), orig.history().total_pushed());
        assert_eq!(copy.history().to_vec(), orig.history().to_vec());
        for m in 1..=cfg.max_lag {
            assert_eq!(copy.mismatch_ratio(m), orig.mismatch_ratio(m), "lag {m}");
        }
        // Continued observation stays bit-identical.
        for i in 0..200u64 {
            let v = i % 5;
            orig.observe(v);
            copy.observe(v);
            assert_eq!(copy.period(), orig.period(), "step {i}");
            assert_eq!(copy.confidence(), orig.confidence(), "step {i}");
        }
    }

    #[test]
    fn hydrate_short_stream_keeps_full_history() {
        let mut orig = PeriodicityDetector::new(DpdConfig::default());
        for v in [1u64, 2, 1, 2, 1] {
            orig.observe(v);
        }
        let copy = PeriodicityDetector::hydrate(
            DpdConfig::default(),
            &orig.history().to_vec(),
            orig.observations(),
            orig.history().total_pushed(),
        );
        assert_eq!(copy.period(), orig.period());
        assert_eq!(copy.observations(), 5);
        assert_eq!(copy.history().to_vec(), vec![1, 2, 1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds the ring capacity")]
    fn hydrate_rejects_oversized_history() {
        let cfg = DpdConfig {
            window: 2,
            max_lag: 2,
            ..DpdConfig::default()
        };
        let _ = PeriodicityDetector::hydrate(cfg, &[1, 2, 3, 4, 5], 5, 5);
    }

    #[test]
    fn confidence_tracks_window_cleanliness() {
        let mut det = PeriodicityDetector::new(DpdConfig {
            window: 32,
            max_lag: 8,
            tolerance: 0.3,
            ..DpdConfig::default()
        });
        assert_eq!(det.confidence(), None, "no lock, no confidence");
        feed_cycles(&mut det, &[1, 2, 3, 4], 12);
        assert_eq!(det.confidence(), Some(1.0), "clean stream");
        det.observe(99);
        det.observe(1);
        det.observe(2);
        let c = det.confidence().expect("tolerant lock holds");
        assert!(c < 1.0, "corruption must lower confidence: {c}");
        assert!(c > 0.7, "one bad sample is a small dent: {c}");
    }

    #[test]
    fn small_evidence_factor_locks_after_one_extra_pattern_sample() {
        // evidence_factor 0.125 with floor 4: lag 16 needs only 4
        // comparisons instead of 16 — locks at sample 20 instead of 32.
        let pattern: Vec<Symbol> = (0..16u64).collect();
        let mut fast = PeriodicityDetector::new(DpdConfig {
            evidence_factor: 0.125,
            min_comparisons: 4,
            ..DpdConfig::default()
        });
        let mut strict = PeriodicityDetector::new(DpdConfig::default());
        let mut fast_lock = None;
        let mut strict_lock = None;
        for i in 0..64 {
            let v = pattern[i % 16];
            fast.observe(v);
            strict.observe(v);
            if fast_lock.is_none() && fast.period().is_some() {
                fast_lock = Some(i + 1);
            }
            if strict_lock.is_none() && strict.period().is_some() {
                strict_lock = Some(i + 1);
            }
        }
        assert_eq!(fast_lock, Some(20));
        assert_eq!(strict_lock, Some(32));
    }

    #[test]
    fn cleanest_lag_wins_over_smaller_polluted_lag() {
        // Stream with long runs inside a larger pattern: lag 1 is almost
        // clean (runs), lag 8 is exactly clean — lag 8 must win.
        let mut det = PeriodicityDetector::new(DpdConfig {
            window: 64,
            max_lag: 16,
            tolerance: 0.4,
            ..DpdConfig::default()
        });
        let pattern = [5u64, 5, 5, 5, 9, 9, 9, 9];
        feed_cycles(&mut det, &pattern, 20);
        assert_eq!(det.period(), Some(8));
    }
}
