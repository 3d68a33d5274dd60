//! Fixed-capacity circular buffer over [`Symbol`]s.
//!
//! The paper (§4.2) notes that the predictor "is done with circular lists,
//! which reduces the overhead of the predictor". This module is that data
//! structure: a power-of-two-free ring that keeps the most recent
//! `capacity` symbols and supports O(1) push and O(1) random access both
//! from the newest end ([`Ring::recent`]) and the oldest end
//! ([`Ring::oldest`]).

use crate::stream::Symbol;

/// A bounded history of the most recent `capacity` stream symbols.
///
/// Pushing beyond capacity silently evicts the oldest element, which is
/// exactly the sliding-window semantics the DPD needs.
///
/// Symbols are stored newest-first: a push moves the head one slot
/// *down*, so any run of recent symbols, read newest-first, is at most
/// two forward-running slices of the buffer — the layout the detector's
/// per-lag compare loops scan.
#[derive(Debug, Clone)]
pub struct Ring {
    buf: Box<[Symbol]>,
    /// Index of the most recent symbol (meaningless while empty).
    head: usize,
    /// Number of valid elements (saturates at `buf.len()`).
    len: usize,
    /// Total number of symbols ever pushed (not capped).
    total: u64,
}

impl Ring {
    /// Creates an empty ring holding at most `capacity` symbols.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            buf: vec![0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// Appends `v`, evicting the oldest element if the ring is full.
    #[inline]
    pub fn push(&mut self, v: Symbol) {
        self.head = if self.head == 0 {
            self.buf.len() - 1
        } else {
            self.head - 1
        };
        self.buf[self.head] = v;
        if self.len < self.buf.len() {
            self.len += 1;
        }
        self.total += 1;
    }

    /// Number of currently stored symbols.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no symbol has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of stored symbols.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Total number of symbols pushed over the ring's lifetime.
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// The value pushed `back` steps ago: `recent(0)` is the most recent
    /// symbol, `recent(1)` the one before it, and so on. Returns `None`
    /// when `back` reaches past the stored history.
    #[inline]
    pub fn recent(&self, back: usize) -> Option<Symbol> {
        if back >= self.len {
            return None;
        }
        // `head < cap` and `back < len <= cap` keep the unwrapped index
        // below 2·cap, so one conditional subtract replaces the modulo.
        let cap = self.buf.len();
        let mut idx = self.head + back;
        if idx >= cap {
            idx -= cap;
        }
        Some(self.buf[idx])
    }

    /// Iterates stored symbols newest-first (`recent(0)`, `recent(1)`,
    /// …) without per-element index arithmetic: the ring is walked as
    /// two contiguous slices.
    #[inline]
    pub fn iter_recent(&self) -> impl Iterator<Item = Symbol> + '_ {
        let (near, far) = self.recent_slices(0, self.len);
        near.iter().chain(far).copied()
    }

    /// `recent(skip)`, `recent(skip + 1)`, … for up to `n` symbols (fewer
    /// when the history runs out), as two forward-running slices: the
    /// second continues the first after the buffer wraps and is often
    /// empty.
    #[inline]
    pub(crate) fn recent_slices(&self, skip: usize, n: usize) -> (&[Symbol], &[Symbol]) {
        let n = n.min(self.len.saturating_sub(skip));
        if n == 0 {
            return (&[], &[]);
        }
        let cap = self.buf.len();
        let mut start = self.head + skip;
        if start >= cap {
            start -= cap;
        }
        let end = start + n;
        if end <= cap {
            (&self.buf[start..end], &[])
        } else {
            (&self.buf[start..], &self.buf[..end - cap])
        }
    }

    /// The `i`-th oldest stored value (`oldest(0)` is the oldest).
    #[inline]
    pub fn oldest(&self, i: usize) -> Option<Symbol> {
        if i >= self.len {
            return None;
        }
        self.recent(self.len - 1 - i)
    }

    /// Iterates stored symbols from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.len).map(move |i| self.oldest(i).expect("index in range"))
    }

    /// Copies the stored window, oldest first, into a fresh vector.
    pub fn to_vec(&self) -> Vec<Symbol> {
        self.iter().collect()
    }

    /// Forgets all stored symbols (capacity and total count are kept).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Overrides the lifetime push counter. Snapshot restore rebuilds a
    /// ring by replaying only the *retained* window, which leaves
    /// `total` short by however many symbols had already slid out; this
    /// sets the counter back to the original stream position.
    pub(crate) fn set_total_pushed(&mut self, total: u64) {
        debug_assert!(
            total >= self.len as u64,
            "total pushed ({total}) cannot be below the retained length ({})",
            self.len
        );
        self.total = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_reports_empty() {
        let r = Ring::with_capacity(4);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.recent(0), None);
        assert_eq!(r.oldest(0), None);
        assert_eq!(r.to_vec(), Vec::<Symbol>::new());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Ring::with_capacity(0);
    }

    #[test]
    fn push_below_capacity() {
        let mut r = Ring::with_capacity(4);
        r.push(10);
        r.push(20);
        assert_eq!(r.len(), 2);
        assert_eq!(r.recent(0), Some(20));
        assert_eq!(r.recent(1), Some(10));
        assert_eq!(r.recent(2), None);
        assert_eq!(r.oldest(0), Some(10));
        assert_eq!(r.to_vec(), vec![10, 20]);
    }

    #[test]
    fn push_wraps_and_evicts_oldest() {
        let mut r = Ring::with_capacity(3);
        for v in 1..=5 {
            r.push(v);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.to_vec(), vec![3, 4, 5]);
        assert_eq!(r.recent(0), Some(5));
        assert_eq!(r.recent(2), Some(3));
        assert_eq!(r.recent(3), None);
        assert_eq!(r.total_pushed(), 5);
    }

    #[test]
    fn capacity_one_keeps_only_last() {
        let mut r = Ring::with_capacity(1);
        r.push(1);
        r.push(2);
        assert_eq!(r.to_vec(), vec![2]);
        assert_eq!(r.recent(0), Some(2));
        assert_eq!(r.recent(1), None);
    }

    #[test]
    fn clear_resets_contents_not_total() {
        let mut r = Ring::with_capacity(2);
        r.push(1);
        r.push(2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_pushed(), 2);
        r.push(9);
        assert_eq!(r.to_vec(), vec![9]);
    }

    #[test]
    fn iter_recent_matches_indexed_access() {
        // Below capacity, at capacity, and after wrapping.
        for pushes in [0usize, 2, 5, 9] {
            let mut r = Ring::with_capacity(5);
            for v in 0..pushes as u64 {
                r.push(v);
            }
            let walked: Vec<Symbol> = r.iter_recent().collect();
            let indexed: Vec<Symbol> = (0..r.len()).map(|b| r.recent(b).unwrap()).collect();
            assert_eq!(walked, indexed, "after {pushes} pushes");
            assert_eq!(walked.len(), r.len());
        }
    }

    #[test]
    fn recent_slices_match_indexed_access() {
        // Below capacity, at capacity, and after wrapping, for every
        // window into the history, including ones running past its end.
        for pushes in [0usize, 3, 5, 7, 13] {
            let mut r = Ring::with_capacity(5);
            for v in 0..pushes as u64 {
                r.push(v);
            }
            for skip in 0..7 {
                for n in 0..7 {
                    let (near, far) = r.recent_slices(skip, n);
                    let walked: Vec<Symbol> = near.iter().chain(far).copied().collect();
                    let indexed: Vec<Symbol> =
                        (skip..skip + n).map_while(|b| r.recent(b)).collect();
                    assert_eq!(walked, indexed, "{pushes} pushes, skip {skip}, n {n}");
                }
            }
        }
    }

    #[test]
    fn iter_matches_to_vec_order() {
        let mut r = Ring::with_capacity(5);
        for v in [4, 8, 15, 16, 23, 42] {
            r.push(v);
        }
        let collected: Vec<Symbol> = r.iter().collect();
        assert_eq!(collected, r.to_vec());
        assert_eq!(collected, vec![8, 15, 16, 23, 42]);
    }
}
