//! The bit-window detector that [`PeriodicityDetector`](super::PeriodicityDetector)
//! replaced, kept unchanged as the reference for the differential
//! property test in `super::differential`.
//!
//! Each lag owns a [`BitWindow`] of its last `window` comparison
//! outcomes and a running mismatch count; selection divides floats lag
//! by lag. It is O(`max_lag`) per observation like the dense counters,
//! but with one scattered heap window per lag. Nothing outside the
//! tests uses it.

// Kept whole as it was, including the accessors no test calls.
#![allow(dead_code)]

use super::detector::DpdConfig;
use crate::ring::Ring;
use crate::stream::Symbol;

/// A fixed-capacity FIFO of bits, used per lag to remember which of the
/// last `capacity` comparisons were mismatches. Pushing past capacity
/// evicts (and returns) the oldest bit so the detector can decrement its
/// mismatch counter — this is what keeps the detector O(max_lag) per
/// observation with exact sliding-window semantics.
#[derive(Debug, Clone)]
pub struct BitWindow {
    words: Box<[u64]>,
    capacity: usize,
    /// Next bit position to write.
    head: usize,
    len: usize,
}

impl BitWindow {
    /// Creates a window holding at most `capacity` bits.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "bit window capacity must be positive");
        let words = vec![0u64; capacity.div_ceil(64)].into_boxed_slice();
        BitWindow {
            words,
            capacity,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn get(&self, pos: usize) -> bool {
        (self.words[pos / 64] >> (pos % 64)) & 1 == 1
    }

    #[inline]
    fn set(&mut self, pos: usize, bit: bool) {
        let w = &mut self.words[pos / 64];
        let mask = 1u64 << (pos % 64);
        if bit {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Appends `bit`. When the window is already full, the oldest bit is
    /// evicted and returned so callers can keep running counts exact.
    #[inline]
    pub fn push(&mut self, bit: bool) -> Option<bool> {
        let evicted = if self.len == self.capacity {
            Some(self.get(self.head))
        } else {
            None
        };
        self.set(self.head, bit);
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        if self.len < self.capacity {
            self.len += 1;
        }
        evicted
    }

    /// Number of bits currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bit has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of stored bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Forgets all stored bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.head = 0;
        self.len = 0;
    }
}

/// Per-lag sliding state: the last `window` comparison outcomes and the
/// running mismatch count among them.
#[derive(Debug, Clone)]
struct LagState {
    bits: BitWindow,
    mismatches: u32,
}

impl LagState {
    fn new(window: usize) -> Self {
        LagState {
            bits: BitWindow::with_capacity(window),
            mismatches: 0,
        }
    }

    #[inline]
    fn record(&mut self, mismatch: bool) {
        if let Some(evicted) = self.bits.push(mismatch) {
            if evicted {
                self.mismatches -= 1;
            }
        }
        if mismatch {
            self.mismatches += 1;
        }
    }

    #[inline]
    fn comparisons(&self) -> usize {
        self.bits.len()
    }
}

/// Online periodicity detector over a symbol stream.
#[derive(Debug, Clone)]
pub struct PeriodicityDetector {
    cfg: DpdConfig,
    /// Recent raw symbols; sized `window + max_lag` so both comparison
    /// partners and prediction sources stay addressable.
    history: Ring,
    /// `lags[i]` tracks lag `min_lag + i`.
    lags: Vec<LagState>,
    /// Precomputed evidence thresholds:
    /// `needs[i] = max(⌈(min_lag + i)·evidence_factor⌉, min_comparisons)`.
    /// The formula is a pure function of the immutable config, and
    /// recomputing the float ceil per lag per event was measurable on
    /// the ingest hot path.
    needs: Vec<usize>,
    current: Option<usize>,
    observations: u64,
}

impl PeriodicityDetector {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: DpdConfig) -> Self {
        cfg.validate();
        let lags = (cfg.min_lag..=cfg.max_lag)
            .map(|_| LagState::new(cfg.window))
            .collect();
        let needs = (cfg.min_lag..=cfg.max_lag)
            .map(|m| ((m as f64 * cfg.evidence_factor).ceil() as usize).max(cfg.min_comparisons))
            .collect();
        PeriodicityDetector {
            history: Ring::with_capacity(cfg.window + cfg.max_lag),
            lags,
            needs,
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
    /// comparisons the original [`BitWindow`]s held — and the mismatch
    /// counters, the locked period, and all future behaviour recompute
    /// bit-identically. Only the two lifetime counters need explicit
    /// fix-up, which this constructor applies.
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
        // Lag `m = min_lag + i` compares `v` against x[t-m]: `m - 1`
        // steps back from the newest stored symbol (v is not yet
        // pushed). Walking the history newest-first and zipping it onto
        // the lag states visits the same (lag, partner) pairs as
        // indexing `recent(m - 1)` per lag, but as two contiguous slice
        // scans — no per-lag index arithmetic; lags whose partner is
        // not stored yet simply fall off the end of the zip.
        let skip = self.cfg.min_lag - 1;
        for (lag, prev) in self
            .lags
            .iter_mut()
            .zip(self.history.iter_recent().skip(skip))
        {
            lag.record(prev != v);
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
        let st = self.lag_state(m)?;
        Some(u8::from(st.mismatches > 0))
    }

    /// Fraction of mismatching comparisons in the window at lag `m`;
    /// `None` outside the lag range or before any comparison happened.
    pub fn mismatch_ratio(&self, m: usize) -> Option<f64> {
        let st = self.lag_state(m)?;
        if st.comparisons() == 0 {
            return None;
        }
        Some(st.mismatches as f64 / st.comparisons() as f64)
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
        for lag in &mut self.lags {
            lag.bits.clear();
            lag.mismatches = 0;
        }
        self.current = None;
        self.observations = 0;
    }

    fn lag_state(&self, m: usize) -> Option<&LagState> {
        if m < self.cfg.min_lag || m > self.cfg.max_lag {
            return None;
        }
        Some(&self.lags[m - self.cfg.min_lag])
    }

    fn eligible(&self, m: usize) -> bool {
        let st = match self.lag_state(m) {
            Some(st) => st,
            None => return false,
        };
        let n = st.comparisons();
        if n < self.needs[m - self.cfg.min_lag] {
            return false;
        }
        st.mismatches as f64 <= self.cfg.tolerance * n as f64
    }

    /// Chooses the eligible lag with the cleanest window — minimal
    /// mismatch ratio, ties broken toward the smallest lag. Exact ties at
    /// ratio 0 therefore resolve to the fundamental period rather than a
    /// multiple, and a long constant *run* inside a larger pattern (ratio
    /// slightly above 0 at lag 1 because of run boundaries in the window)
    /// does not steal the lock from the true period (ratio exactly 0).
    fn update_current(&mut self) {
        let mut best: Option<(f64, usize)> = None;
        for m in self.cfg.min_lag..=self.cfg.max_lag {
            if !self.eligible(m) {
                continue;
            }
            let st = self.lag_state(m).expect("lag in range");
            let ratio = st.mismatches as f64 / st.comparisons() as f64;
            match best {
                Some((r, _)) if r <= ratio => {}
                _ => best = Some((ratio, m)),
            }
            if ratio == 0.0 {
                // Nothing can beat a clean window at a smaller lag.
                break;
            }
        }
        self.current = best.map(|(_, m)| m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_window_below_capacity_never_evicts() {
        let mut b = BitWindow::with_capacity(3);
        assert!(b.is_empty());
        assert_eq!(b.push(true), None);
        assert_eq!(b.push(false), None);
        assert_eq!(b.push(true), None);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn bit_window_evicts_fifo() {
        let mut b = BitWindow::with_capacity(2);
        b.push(true);
        b.push(false);
        assert_eq!(b.push(false), Some(true));
        assert_eq!(b.push(true), Some(false));
        assert_eq!(b.push(true), Some(false));
        assert_eq!(b.push(false), Some(true));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn bit_window_crosses_word_boundaries() {
        let mut b = BitWindow::with_capacity(130);
        for i in 0..130 {
            assert_eq!(b.push(i % 3 == 0), None);
        }
        // Evictions now replay the pushed pattern in order.
        for i in 0..130 {
            let evicted = b.push(false);
            assert_eq!(evicted, Some(i % 3 == 0), "bit {i}");
        }
    }

    #[test]
    fn bit_window_clear() {
        let mut b = BitWindow::with_capacity(4);
        b.push(true);
        b.push(true);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.push(true), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bit_window_zero_capacity_panics() {
        let _ = BitWindow::with_capacity(0);
    }
}
