//! Fixed-capacity circular buffer over [`Symbol`]s.
//!
//! The paper (§4.2) notes that the predictor "is done with circular lists,
//! which reduces the overhead of the predictor". This module is that data
//! structure: a power-of-two-free ring that keeps the most recent
//! `capacity` symbols and supports O(1) push and O(1) random access both
//! from the newest end ([`Ring::recent`]) and the oldest end
//! ([`Ring::oldest`]).
//!
//! A ring stores its symbols at the narrowest width they allow: one byte
//! each while every symbol pushed fits a byte, full [`Symbol`]s from the
//! first push that does not. The engine feeds its detectors dense ids,
//! so a stream's ring stays byte-wide until the stream interns its 257th
//! symbol; the DPD's compare passes then read an eighth of the bytes.

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
///
/// The buffer holds `u8`s until a symbol above 255 is pushed; that push
/// widens it once, in place, to `Symbol`s and it stays wide, across
/// [`Ring::clear`] too. The width never shows in the API: every accessor
/// reads and returns `Symbol`s.
#[derive(Debug, Clone)]
pub struct Ring {
    buf: Buf,
    /// Index of the most recent symbol (meaningless while empty).
    head: usize,
    /// Number of valid elements (saturates at the capacity).
    len: usize,
    /// Total number of symbols ever pushed (not capped).
    total: u64,
}

/// The ring's storage at its current width.
#[derive(Debug, Clone)]
enum Buf {
    /// Every symbol pushed so far fits a byte.
    Narrow(Box<[u8]>),
    /// Some symbol pushed did not fit a byte.
    Wide(Box<[Symbol]>),
}

/// A ring's retained symbols at the width it stores them, for scans
/// that run one loop body per width.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Width<'a> {
    Narrow(Recent<'a, u8>),
    Wide(Recent<'a, Symbol>),
}

/// Newest-first access to a ring's retained symbols stored as `T`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Recent<'a, T> {
    buf: &'a [T],
    head: usize,
    len: usize,
}

impl<'a, T: Copy> Recent<'a, T> {
    /// The symbol stored `back` pushes ago (`get(0)` is the newest), or
    /// `None` past the retained history.
    #[inline]
    pub(crate) fn get(&self, back: usize) -> Option<T> {
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

    /// `get(skip)`, `get(skip + 1)`, … for up to `n` symbols (fewer when
    /// the history runs out), as two forward-running slices: the second
    /// continues the first after the buffer wraps and is often empty.
    #[inline]
    pub(crate) fn slices(&self, skip: usize, n: usize) -> (&'a [T], &'a [T]) {
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
}

impl Ring {
    /// Creates an empty ring holding at most `capacity` symbols.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            buf: Buf::Narrow(vec![0; capacity].into_boxed_slice()),
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// Appends `v`, evicting the oldest element if the ring is full.
    #[inline]
    pub fn push(&mut self, v: Symbol) {
        self.widen_for(v);
        self.head = if self.head == 0 {
            self.capacity() - 1
        } else {
            self.head - 1
        };
        match &mut self.buf {
            // `widen_for` leaves the ring narrow only when `v` fits a byte.
            Buf::Narrow(buf) => buf[self.head] = v as u8,
            Buf::Wide(buf) => buf[self.head] = v,
        }
        if self.len < self.capacity() {
            self.len += 1;
        }
        self.total += 1;
    }

    /// Widens a narrow ring, keeping every stored symbol in its slot,
    /// when `v` does not fit a byte; otherwise does nothing.
    #[inline]
    pub(crate) fn widen_for(&mut self, v: Symbol) {
        if v > Symbol::from(u8::MAX) && matches!(self.buf, Buf::Narrow(_)) {
            self.widen();
        }
    }

    #[cold]
    fn widen(&mut self) {
        if let Buf::Narrow(narrow) = &self.buf {
            self.buf = Buf::Wide(narrow.iter().map(|&b| Symbol::from(b)).collect());
        }
    }

    /// The retained symbols at the width the ring stores them.
    #[inline]
    pub(crate) fn width(&self) -> Width<'_> {
        let (head, len) = (self.head, self.len);
        match &self.buf {
            Buf::Narrow(buf) => Width::Narrow(Recent { buf, head, len }),
            Buf::Wide(buf) => Width::Wide(Recent { buf, head, len }),
        }
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
        match &self.buf {
            Buf::Narrow(buf) => buf.len(),
            Buf::Wide(buf) => buf.len(),
        }
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
        match self.width() {
            Width::Narrow(r) => r.get(back).map(Symbol::from),
            Width::Wide(r) => r.get(back),
        }
    }

    /// Iterates stored symbols newest-first (`recent(0)`, `recent(1)`,
    /// …) without per-element index arithmetic: the ring is walked as
    /// two contiguous slices.
    #[inline]
    pub fn iter_recent(&self) -> impl Iterator<Item = Symbol> + '_ {
        // One pair of slices is empty: the ring has a single width.
        let ((near, far), (wide_near, wide_far)) = match self.width() {
            Width::Narrow(r) => (r.slices(0, self.len), (&[][..], &[][..])),
            Width::Wide(r) => ((&[][..], &[][..]), r.slices(0, self.len)),
        };
        near.iter()
            .chain(far)
            .map(|&b| Symbol::from(b))
            .chain(wide_near.iter().chain(wide_far).copied())
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

    /// Forgets all stored symbols (capacity, width and total count are
    /// kept, so clearing never allocates).
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
        // window into the history, including ones running past its end,
        // at both widths: `base` 1000 widens the ring on its first push.
        for base in [0u64, 1000] {
            for pushes in [0usize, 3, 5, 7, 13] {
                let mut r = Ring::with_capacity(5);
                for v in 0..pushes as u64 {
                    r.push(base + v);
                }
                for skip in 0..7 {
                    for n in 0..7 {
                        let walked: Vec<Symbol> = match r.width() {
                            Width::Narrow(h) => {
                                assert!(base == 0 || pushes == 0);
                                let (near, far) = h.slices(skip, n);
                                near.iter().chain(far).map(|&b| Symbol::from(b)).collect()
                            }
                            Width::Wide(h) => {
                                assert!(base > 0);
                                let (near, far) = h.slices(skip, n);
                                near.iter().chain(far).copied().collect()
                            }
                        };
                        let indexed: Vec<Symbol> =
                            (skip..skip + n).map_while(|b| r.recent(b)).collect();
                        assert_eq!(walked, indexed, "{pushes} pushes, skip {skip}, n {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn widens_once_on_the_first_symbol_past_a_byte_and_keeps_the_history() {
        let mut r = Ring::with_capacity(4);
        for v in [7, 255, 0, 9, 3] {
            r.push(v);
        }
        assert!(matches!(r.width(), Width::Narrow(_)));
        r.push(256);
        assert!(matches!(r.width(), Width::Wide(_)));
        assert_eq!(r.to_vec(), vec![0, 9, 3, 256]);
        assert_eq!(r.iter_recent().collect::<Vec<_>>(), vec![256, 3, 9, 0]);
        assert_eq!(r.total_pushed(), 6);
        // Small symbols no longer narrow it, and neither does clearing.
        r.push(1);
        r.clear();
        assert!(matches!(r.width(), Width::Wide(_)));
        r.push(2);
        assert_eq!(r.to_vec(), vec![2]);
        assert_eq!(r.capacity(), 4);
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
