//! The periodicity-based predictor of §4.2.
//!
//! Once the detector knows the period `p`, the value `h` steps ahead is
//! read straight out of the history: `x̂[t+h] = x[t+h−kp]` where `k` is the
//! smallest integer with `kp ≥ h`. This is what lets the paper predict the
//! next **five** senders and sizes at once (`+1 … +5` in Figures 3/4),
//! rather than a single next value like the heuristic predictors of
//! related work.

use super::detector::{DpdConfig, PeriodicityDetector};
use crate::predictors::{push_flag, HydrateError, Predictor, WordCursor};
use crate::stream::Symbol;
use std::sync::Mutex;

/// Serializable state of a [`DpdPredictor`], for snapshot/restore.
///
/// The detector itself is not dumped field-by-field: its retained
/// history window (`window + max_lag` symbols) is sufficient to
/// regenerate every lag's comparison state bit-identically via
/// [`PeriodicityDetector::hydrate`], so the state is the window plus
/// the handful of lifetime counters that replay cannot recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpdPredictorState {
    /// Majority-vote variant flag.
    pub vote: bool,
    /// Retained history window, oldest first.
    pub history: Vec<Symbol>,
    /// Detector's lifetime observation count.
    pub det_observations: u64,
    /// Ring's lifetime push counter (≥ `history.len()`).
    pub history_total: u64,
    /// Predictor-level observation count.
    pub obs_seen: u64,
    /// Lifetime period-change count.
    pub period_changes: u64,
    /// `obs_seen` at the most recent period change.
    pub last_change_at: u64,
    /// Length of the run ended by the most recent period change.
    pub ended_run_len: u64,
}

/// Predictor wrapping a [`PeriodicityDetector`].
#[derive(Debug)]
pub struct DpdPredictor {
    det: PeriodicityDetector,
    /// When `true`, predictions are the majority vote over all stored
    /// pattern instances at the same phase, instead of a copy of the most
    /// recent instance. This is an ablation variant (more robust to a
    /// transient reordering that landed inside the last period).
    vote: bool,
    /// Reusable `(symbol, count)` tally for [`DpdPredictor::predict_vote`].
    /// The alphabet at one phase is tiny (usually 1–2 symbols), so a
    /// linear-scan vector beats a hash map *and* lets the scratch be
    /// reused across calls — `predict` stays `&self` (the scoring path
    /// calls it per observed event) via interior mutability, and the
    /// steady state allocates nothing. A `Mutex` (uncontended: one lock
    /// per vote-variant predict, off the hot path) rather than a
    /// `RefCell`, so the predictor keeps its `Sync` auto-trait —
    /// read-only prediction may still be shared across threads.
    vote_scratch: Mutex<Vec<(Symbol, u32)>>,
    /// Observations consumed so far (monotone).
    obs_seen: u64,
    /// Number of times the detected period changed (including gaining or
    /// losing a lock).
    period_changes: u64,
    /// `obs_seen` at the most recent period change (0 before any).
    last_change_at: u64,
    /// Length in observations of the run ended by the most recent period
    /// change (0 before any change). Telemetry records this into a
    /// histogram at churn time — the distribution of how long locks
    /// survive.
    ended_run_len: u64,
}

impl Clone for DpdPredictor {
    fn clone(&self) -> Self {
        DpdPredictor {
            det: self.det.clone(),
            vote: self.vote,
            // Scratch holds no state between calls; a clone starts empty.
            vote_scratch: Mutex::new(Vec::new()),
            obs_seen: self.obs_seen,
            period_changes: self.period_changes,
            last_change_at: self.last_change_at,
            ended_run_len: self.ended_run_len,
        }
    }
}

impl DpdPredictor {
    /// Creates a predictor that copies the most recent pattern instance.
    pub fn new(cfg: DpdConfig) -> Self {
        DpdPredictor {
            det: PeriodicityDetector::new(cfg),
            vote: false,
            vote_scratch: Mutex::new(Vec::new()),
            obs_seen: 0,
            period_changes: 0,
            last_change_at: 0,
            ended_run_len: 0,
        }
    }

    /// Creates the majority-vote variant (see [`DpdPredictor::new`]).
    pub fn with_vote(cfg: DpdConfig) -> Self {
        let mut p = DpdPredictor::new(cfg);
        p.vote = true;
        p
    }

    /// Exports everything [`DpdPredictor::from_state`] needs to rebuild
    /// this predictor bit-identically (given the same [`DpdConfig`]).
    pub fn export_state(&self) -> DpdPredictorState {
        DpdPredictorState {
            vote: self.vote,
            history: self.det.history().to_vec(),
            det_observations: self.det.observations(),
            history_total: self.det.history().total_pushed(),
            obs_seen: self.obs_seen,
            period_changes: self.period_changes,
            last_change_at: self.last_change_at,
            ended_run_len: self.ended_run_len,
        }
    }

    /// Rebuilds a predictor from exported state — the snapshot/restore
    /// path. The detector is hydrated by replaying the retained window
    /// (exact; see [`PeriodicityDetector::hydrate`]), then the churn
    /// counters are set directly so the replay does not perturb them.
    ///
    /// # Panics
    /// Panics if `state.history` does not fit `cfg`'s ring capacity —
    /// i.e. the snapshot was taken under a different detector config.
    pub fn from_state(cfg: DpdConfig, state: &DpdPredictorState) -> Self {
        let det = PeriodicityDetector::hydrate(
            cfg,
            &state.history,
            state.det_observations,
            state.history_total,
        );
        DpdPredictor {
            det,
            vote: state.vote,
            vote_scratch: Mutex::new(Vec::new()),
            obs_seen: state.obs_seen,
            period_changes: state.period_changes,
            last_change_at: state.last_change_at,
            ended_run_len: state.ended_run_len,
        }
    }

    /// Currently detected period, if any.
    pub fn period(&self) -> Option<usize> {
        self.det.period()
    }

    /// Confidence in the current lock (see
    /// [`PeriodicityDetector::confidence`]).
    pub fn confidence(&self) -> Option<f64> {
        self.det.confidence()
    }

    /// Read access to the underlying detector.
    pub fn detector(&self) -> &PeriodicityDetector {
        &self.det
    }

    /// Observations consumed so far.
    pub fn observations(&self) -> u64 {
        self.obs_seen
    }

    /// How many times the detected period has changed (gaining or
    /// losing a lock counts; a serving layer can histogram run lengths
    /// at each change via [`DpdPredictor::ended_run_len`]).
    pub fn period_changes(&self) -> u64 {
        self.period_changes
    }

    /// Observations since the most recent period change — how long the
    /// current lock (or lock-less stretch) has survived.
    pub fn lock_run_len(&self) -> u64 {
        self.obs_seen - self.last_change_at
    }

    /// Length in observations of the run ended by the most recent
    /// period change (0 before any change). Stable between changes, so
    /// a churn observer can read it *after* the observation that
    /// changed the period.
    pub fn ended_run_len(&self) -> u64 {
        self.ended_run_len
    }

    /// Predicts the next `horizons` values in one call: index 0 is `+1`.
    /// Entries are `None` while no period is locked or history is too
    /// short. This is the "several future values" interface of §4.2 that
    /// the buffer pre-allocation use case (§2.1) consumes.
    pub fn predict_next(&self, horizons: usize) -> Vec<Option<Symbol>> {
        let mut out = Vec::new();
        self.predict_next_into(horizons, &mut out);
        out
    }

    /// [`DpdPredictor::predict_next`] into a caller-provided buffer:
    /// `out` is cleared and refilled, so its capacity is reused across
    /// calls and the serving engine's forecast path stays allocation-free
    /// in steady state.
    pub fn predict_next_into(&self, horizons: usize, out: &mut Vec<Option<Symbol>>) {
        out.clear();
        out.reserve(horizons);
        out.extend((1..=horizons).map(|h| self.predict(h)));
    }

    fn predict_copy(&self, horizon: usize) -> Option<Symbol> {
        let p = self.det.period()?;
        // Smallest k with k*p >= horizon; back = k*p - horizon steps into
        // the past, where back = 0 is the most recent observation.
        let k = horizon.div_ceil(p);
        let back = k * p - horizon;
        self.det.history().recent(back)
    }

    fn predict_vote(&self, horizon: usize) -> Option<Symbol> {
        let p = self.det.period()?;
        let hist = self.det.history();
        let mut counts = self
            .vote_scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        counts.clear();
        let mut k = horizon.div_ceil(p);
        loop {
            let back = k * p - horizon;
            match hist.recent(back) {
                Some(v) => match counts.iter_mut().find(|(s, _)| *s == v) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((v, 1)),
                },
                None => break,
            }
            k += 1;
        }
        // Majority vote; ties broken toward the most recent instance so the
        // vote variant degrades gracefully to the copy variant.
        let best = counts.iter().map(|&(_, c)| c).max()?;
        let mut k = horizon.div_ceil(p);
        loop {
            let back = k * p - horizon;
            let v = hist.recent(back)?;
            let c = counts
                .iter()
                .find(|&&(s, _)| s == v)
                .map(|&(_, c)| c)
                .expect("every stored instance was tallied");
            if c == best {
                return Some(v);
            }
            k += 1;
        }
    }
}

impl Predictor for DpdPredictor {
    fn name(&self) -> &'static str {
        if self.vote {
            "dpd-vote"
        } else {
            "dpd"
        }
    }

    fn observe(&mut self, v: Symbol) {
        let before = self.det.period();
        self.det.observe(v);
        self.obs_seen += 1;
        if self.det.period() != before {
            self.period_changes += 1;
            self.ended_run_len = self.obs_seen - 1 - self.last_change_at;
            self.last_change_at = self.obs_seen;
        }
    }

    fn predict(&self, horizon: usize) -> Option<Symbol> {
        if horizon == 0 {
            return None;
        }
        if self.vote {
            self.predict_vote(horizon)
        } else {
            self.predict_copy(horizon)
        }
    }

    fn reset(&mut self) {
        self.det.reset();
        self.obs_seen = 0;
        self.period_changes = 0;
        self.last_change_at = 0;
        self.ended_run_len = 0;
    }

    fn export_words(&self, out: &mut Vec<u64>) {
        let state = self.export_state();
        push_flag(out, state.vote);
        out.push(state.history.len() as u64);
        out.extend_from_slice(&state.history);
        out.push(state.det_observations);
        out.push(state.history_total);
        out.push(state.obs_seen);
        out.push(state.period_changes);
        out.push(state.last_change_at);
        out.push(state.ended_run_len);
    }

    fn hydrate_words(&mut self, cur: &mut WordCursor<'_>) -> Result<(), HydrateError> {
        let vote = cur.flag()?;
        if vote != self.vote {
            return Err(HydrateError("dpd vote variant disagrees with config"));
        }
        let n = cur.next_len()?;
        if n > self.det.history().capacity() {
            return Err(HydrateError("dpd history exceeds the ring capacity"));
        }
        let mut history = Vec::with_capacity(n);
        for _ in 0..n {
            history.push(cur.word()?);
        }
        let state = DpdPredictorState {
            vote,
            history,
            det_observations: cur.word()?,
            history_total: cur.word()?,
            obs_seen: cur.word()?,
            period_changes: cur.word()?,
            last_change_at: cur.word()?,
            ended_run_len: cur.word()?,
        };
        if state.history_total < state.history.len() as u64 {
            return Err(HydrateError("dpd history total below window length"));
        }
        // `observe` and `lock_run_len` subtract the change stamp from
        // the observation count.
        if state.last_change_at > state.obs_seen {
            return Err(HydrateError(
                "dpd last period change is past its observation count",
            ));
        }
        *self = DpdPredictor::from_state(self.det.config().clone(), &state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained(pattern: &[Symbol], cycles: usize) -> DpdPredictor {
        let mut p = DpdPredictor::new(DpdConfig::default());
        for _ in 0..cycles {
            for &v in pattern {
                p.observe(v);
            }
        }
        p
    }

    #[test]
    fn predicts_full_cycle_ahead() {
        let p = trained(&[10, 20, 30, 40], 10);
        assert_eq!(p.period(), Some(4));
        // Stream ends on 40; next values cycle from 10.
        assert_eq!(p.predict(1), Some(10));
        assert_eq!(p.predict(2), Some(20));
        assert_eq!(p.predict(3), Some(30));
        assert_eq!(p.predict(4), Some(40));
        assert_eq!(p.predict(5), Some(10));
        assert_eq!(p.predict(9), Some(10));
    }

    #[test]
    fn mid_phase_prediction() {
        let mut p = trained(&[10, 20, 30, 40], 10);
        p.observe(10);
        p.observe(20);
        assert_eq!(p.predict(1), Some(30));
        assert_eq!(p.predict(2), Some(40));
        assert_eq!(p.predict(3), Some(10));
    }

    #[test]
    fn horizons_beyond_history_are_none() {
        // Period 1 stream, but ask for a horizon requiring history deeper
        // than what is retained: k*p - h stays small for p=1, so use an
        // untrained predictor instead to exercise the None path.
        let p = DpdPredictor::new(DpdConfig::default());
        assert_eq!(p.predict(1), None);
        assert_eq!(p.predict(0), None);
    }

    #[test]
    fn predict_next_matches_individual_calls() {
        let p = trained(&[1, 2, 3], 10);
        let all = p.predict_next(5);
        for (i, v) in all.iter().enumerate() {
            assert_eq!(*v, p.predict(i + 1));
        }
    }

    #[test]
    fn predict_next_into_reuses_the_buffer() {
        let p = trained(&[4, 9], 10);
        let mut out = vec![Some(777); 32]; // stale contents must vanish
        p.predict_next_into(3, &mut out);
        assert_eq!(out, p.predict_next(3));
        assert_eq!(out.len(), 3);
        let cap = out.capacity();
        p.predict_next_into(3, &mut out);
        assert_eq!(out.capacity(), cap, "steady state reuses capacity");
    }

    #[test]
    fn vote_scratch_reuse_keeps_answers_stable() {
        // Repeated vote predictions must agree with themselves (the
        // tally scratch is cleared per call, not accumulated).
        let mut p = DpdPredictor::with_vote(DpdConfig::default());
        for _ in 0..10 {
            for v in [1u64, 2, 3, 4] {
                p.observe(v);
            }
        }
        let first = p.predict(2);
        for _ in 0..5 {
            assert_eq!(p.predict(2), first);
        }
        assert_eq!(first, Some(2));
    }

    #[test]
    fn no_prediction_without_periodicity() {
        let mut p = DpdPredictor::new(DpdConfig {
            max_lag: 8,
            window: 32,
            ..DpdConfig::default()
        });
        for v in 0..100u64 {
            p.observe(v); // strictly increasing: aperiodic
        }
        assert_eq!(p.predict(1), None);
    }

    #[test]
    fn vote_variant_outvotes_transient_corruption() {
        let cfg = DpdConfig {
            window: 64,
            max_lag: 8,
            tolerance: 0.2,
            ..DpdConfig::default()
        };
        let mut copy = DpdPredictor::new(cfg.clone());
        let mut vote = DpdPredictor::with_vote(cfg);
        let pattern = [1u64, 2, 3, 4];
        for _ in 0..10 {
            for &v in &pattern {
                copy.observe(v);
                vote.observe(v);
            }
        }
        // Corrupt the most recent instance: 1 2 9 4.
        for &v in &[1u64, 2, 9, 4] {
            copy.observe(v);
            vote.observe(v);
        }
        // Copy variant replays the corruption one period later; the vote
        // variant recovers the true pattern value.
        assert_eq!(copy.predict(3), Some(9));
        assert_eq!(vote.predict(3), Some(3));
        // Both agree where no corruption happened.
        assert_eq!(copy.predict(1), Some(1));
        assert_eq!(vote.predict(1), Some(1));
    }

    #[test]
    fn reset_forgets_pattern() {
        let mut p = trained(&[5, 6], 20);
        assert!(p.predict(1).is_some());
        p.reset();
        assert_eq!(p.predict(1), None);
        assert_eq!(p.period(), None);
    }

    #[test]
    fn hydrate_rejects_a_period_change_past_the_observation_count() {
        let p = trained(&[5, 6, 7], 20);
        let mut words = Vec::new();
        p.export_words(&mut words);
        // vote flag, history length and history, then the detector's
        // count, the ring's count, `obs_seen`, `period_changes` and
        // `last_change_at`.
        let obs_seen = 2 + words[1] as usize + 2;
        let mut copy = DpdPredictor::new(DpdConfig::default());
        copy.hydrate_words(&mut WordCursor::new(&words)).unwrap();
        words[obs_seen + 2] = words[obs_seen] + 1;
        assert_eq!(
            copy.hydrate_words(&mut WordCursor::new(&words)),
            Err(HydrateError(
                "dpd last period change is past its observation count"
            ))
        );
    }

    #[test]
    fn predictor_stays_send_and_sync() {
        // The vote scratch uses a Mutex precisely so shared read-only
        // prediction across threads keeps compiling; losing either
        // auto-trait is an unversioned API break.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DpdPredictor>();
    }

    #[test]
    fn churn_hooks_track_period_run_lengths() {
        let mut p = DpdPredictor::new(DpdConfig::default());
        assert_eq!(p.period_changes(), 0);
        assert_eq!(p.lock_run_len(), 0);
        // Train a clean period-4 pattern: exactly one change (None ->
        // Some(4)) is expected, and the ended run is the warm-up.
        for _ in 0..10 {
            for v in [10u64, 20, 30, 40] {
                p.observe(v);
            }
        }
        assert_eq!(p.period(), Some(4));
        assert_eq!(p.period_changes(), 1);
        assert_eq!(p.observations(), 40);
        let warmup = p.ended_run_len();
        assert_eq!(p.lock_run_len(), 40 - warmup - 1);
        // An aperiodic tail eventually breaks the lock: the ended run
        // is at least the stable stretch observed above.
        for v in 1000u64..1200 {
            p.observe(v);
        }
        assert_eq!(p.period(), None);
        assert!(p.period_changes() >= 2);
        // Reset forgets the counters alongside the pattern.
        p.reset();
        assert_eq!(
            (p.observations(), p.period_changes(), p.lock_run_len()),
            (0, 0, 0)
        );
        assert_eq!(p.ended_run_len(), 0);
    }

    #[test]
    fn clone_preserves_churn_counters() {
        let mut p = trained(&[7, 8, 9], 10);
        p.observe(7);
        let c = p.clone();
        assert_eq!(c.observations(), p.observations());
        assert_eq!(c.period_changes(), p.period_changes());
        assert_eq!(c.lock_run_len(), p.lock_run_len());
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let cfg = DpdConfig {
            window: 48,
            max_lag: 9,
            tolerance: 0.1,
            ..DpdConfig::default()
        };
        let mut orig = DpdPredictor::new(cfg.clone());
        // Long enough for the window to wrap, with a churn event inside.
        for i in 0..400u64 {
            orig.observe(if i < 200 { i % 3 } else { i % 7 });
        }
        let state = orig.export_state();
        let mut copy = DpdPredictor::from_state(cfg, &state);
        assert_eq!(copy.period(), orig.period());
        assert_eq!(copy.confidence(), orig.confidence());
        assert_eq!(copy.observations(), orig.observations());
        assert_eq!(copy.period_changes(), orig.period_changes());
        assert_eq!(copy.lock_run_len(), orig.lock_run_len());
        assert_eq!(copy.ended_run_len(), orig.ended_run_len());
        for h in 1..=10 {
            assert_eq!(copy.predict(h), orig.predict(h), "horizon {h}");
        }
        // The restored predictor keeps evolving identically.
        for i in 0..300u64 {
            let v = i % 7;
            orig.observe(v);
            copy.observe(v);
            assert_eq!(copy.predict(1), orig.predict(1), "step {i}");
            assert_eq!(copy.period_changes(), orig.period_changes(), "step {i}");
        }
        // Round-tripping the copy yields the same state again.
        assert_eq!(copy.export_state(), orig.export_state());
    }

    #[test]
    fn state_preserves_vote_variant() {
        let mut p = DpdPredictor::with_vote(DpdConfig::default());
        for _ in 0..10 {
            for v in [1u64, 2, 3, 4] {
                p.observe(v);
            }
        }
        let copy = DpdPredictor::from_state(DpdConfig::default(), &p.export_state());
        assert_eq!(copy.name(), "dpd-vote");
        assert_eq!(copy.predict(2), p.predict(2));
    }

    #[test]
    fn names_distinguish_variants() {
        let a = DpdPredictor::new(DpdConfig::default());
        let b = DpdPredictor::with_vote(DpdConfig::default());
        assert_eq!(a.name(), "dpd");
        assert_eq!(b.name(), "dpd-vote");
    }
}
