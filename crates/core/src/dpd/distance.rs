//! The DPD distance metric (paper equation 1), computed offline.
//!
//! The offline functions here are the *reference* semantics; the online
//! [`PeriodicityDetector`](super::detector::PeriodicityDetector) maintains
//! the same quantities incrementally and is cross-checked against these in
//! property tests.

use crate::stream::Symbol;

/// For each lag `m` in `1..=max_lag`, the number of positions `i ≥ m` in
/// `window` with `window[i] != window[i-m]`, together with the number of
/// comparisons performed (`window.len() - m`, clamped at 0).
///
/// `d(m)` of the paper is `sign` of the mismatch count; the raw count is
/// exposed so callers can apply a tolerance on noisy streams.
pub fn mismatch_profile(window: &[Symbol], max_lag: usize) -> Vec<(usize, usize)> {
    (1..=max_lag)
        .map(|m| {
            if m >= window.len() {
                return (0, 0);
            }
            let mismatches = (m..window.len())
                .filter(|&i| window[i] != window[i - m])
                .count();
            (mismatches, window.len() - m)
        })
        .collect()
}

/// Equation (1) of the paper: `0` when the window is exactly periodic with
/// period `m`, `1` otherwise. Lags that allow no comparison (window shorter
/// than `m + 1`) report `0` vacuously, matching the sum over an empty set.
pub fn distance_sign(window: &[Symbol], m: usize) -> u8 {
    if m == 0 || m >= window.len() {
        return 0;
    }
    let mismatch = (m..window.len()).any(|i| window[i] != window[i - m]);
    u8::from(mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_on_periodic_window() {
        // Period 3.
        let w = [1u64, 2, 3, 1, 2, 3, 1, 2, 3];
        let prof = mismatch_profile(&w, 6);
        // Lags 3 and 6 are exact periods: zero mismatches.
        assert_eq!(prof[2], (0, 6)); // m = 3
        assert_eq!(prof[5], (0, 3)); // m = 6
                                     // Lag 1 mismatches everywhere (no equal neighbours).
        assert_eq!(prof[0], (8, 8));
        assert_eq!(distance_sign(&w, 3), 0);
        assert_eq!(distance_sign(&w, 1), 1);
    }

    #[test]
    fn profile_counts_single_corruption() {
        let mut w = vec![1u64, 2, 1, 2, 1, 2, 1, 2];
        w[4] = 9; // one corrupted sample
        let prof = mismatch_profile(&w, 2);
        // Lag 2: positions 4 and 6 disagree with their pair.
        assert_eq!(prof[1], (2, 6));
        assert_eq!(distance_sign(&w, 2), 1);
    }

    #[test]
    fn lags_beyond_window_are_vacuous() {
        let w = [5u64, 6];
        assert_eq!(distance_sign(&w, 2), 0);
        assert_eq!(distance_sign(&w, 99), 0);
        let prof = mismatch_profile(&w, 4);
        assert_eq!(prof[1], (0, 0));
        assert_eq!(prof[3], (0, 0));
    }

    #[test]
    fn lag_zero_is_ignored() {
        assert_eq!(distance_sign(&[1, 2, 3], 0), 0);
    }
}
