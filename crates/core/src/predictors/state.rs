//! Word-level state codec shared by every roster predictor.
//!
//! Snapshots serialize predictor state as a flat `u64` word stream
//! (the same primitive the engine's snapshot writer uses), so each
//! predictor only has to define two things: how it dumps itself into
//! words ([`Predictor::export_words`](super::Predictor::export_words))
//! and how it rebuilds itself from a [`WordCursor`]
//! ([`Predictor::hydrate_words`](super::Predictor::hydrate_words)).
//!
//! Two invariants every codec must keep:
//!
//! * **Deterministic bytes.** The same logical state must always
//!   export the same words — hash maps are dumped in sorted key
//!   order, cached values that tie-break by arrival order are
//!   exported explicitly rather than recomputed.
//! * **Bit-exact hydrate.** `export → hydrate → export` must
//!   reproduce the identical word stream, and the hydrated predictor
//!   must behave identically on all future observations. This is what
//!   lets the engine promise snapshot/restore is invisible.

use std::fmt;

/// Error raised when a predictor state blob does not parse: short
/// reads, impossible values, or words left over after a full decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HydrateError(pub &'static str);

impl fmt::Display for HydrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "predictor state malformed: {}", self.0)
    }
}

impl std::error::Error for HydrateError {}

/// Forward-only reader over an exported word stream. Nested codecs
/// (e.g. the hybrid predictor decoding its DPD bank and its fallback)
/// share one cursor; the caller invokes [`WordCursor::finish`] once
/// the outermost decode completes.
#[derive(Debug)]
pub struct WordCursor<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> WordCursor<'a> {
    /// A cursor at the start of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        WordCursor { words, pos: 0 }
    }

    /// Reads the next word (a forward-only read, not an `Iterator`).
    pub fn word(&mut self) -> Result<u64, HydrateError> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or(HydrateError("unexpected end of state words"))?;
        self.pos += 1;
        Ok(w)
    }

    /// Reads a `usize`-valued word, rejecting values that do not fit.
    pub fn next_len(&mut self) -> Result<usize, HydrateError> {
        usize::try_from(self.word()?).map_err(|_| HydrateError("length word out of range"))
    }

    /// Reads an entry count whose entries take at least
    /// `words_per_entry` words each, rejecting a count the remaining
    /// words cannot hold. Hydrates reserve capacity from this count, so
    /// checking it first keeps a corrupt count from asking the
    /// allocator for more than the blob itself could describe.
    pub fn next_count(&mut self, words_per_entry: usize) -> Result<usize, HydrateError> {
        let n = self.next_len()?;
        match n.checked_mul(words_per_entry) {
            Some(words) if words <= self.remaining() => Ok(n),
            _ => Err(HydrateError("entry count exceeds the remaining words")),
        }
    }

    /// Reads an optional word: a 0/1 flag word, then the value word
    /// when the flag is 1.
    pub fn opt(&mut self) -> Result<Option<u64>, HydrateError> {
        match self.word()? {
            0 => Ok(None),
            1 => Ok(Some(self.word()?)),
            _ => Err(HydrateError("option flag word not 0 or 1")),
        }
    }

    /// Reads a boolean flag word.
    pub fn flag(&mut self) -> Result<bool, HydrateError> {
        match self.word()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(HydrateError("bool flag word not 0 or 1")),
        }
    }

    /// Words not yet consumed.
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    /// Asserts the stream was consumed exactly.
    pub fn finish(self) -> Result<(), HydrateError> {
        if self.pos == self.words.len() {
            Ok(())
        } else {
            Err(HydrateError("trailing state words after decode"))
        }
    }
}

/// Appends an optional word as flag-then-value (the inverse of
/// [`WordCursor::opt`]).
pub fn push_opt(out: &mut Vec<u64>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.push(v);
        }
    }
}

/// Appends a boolean as a 0/1 flag word.
pub fn push_flag(out: &mut Vec<u64>, v: bool) {
    out.push(u64::from(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_round_trips_options_and_flags() {
        let mut words = Vec::new();
        push_opt(&mut words, None);
        push_opt(&mut words, Some(7));
        push_flag(&mut words, true);
        push_flag(&mut words, false);
        words.push(42);
        let mut cur = WordCursor::new(&words);
        assert_eq!(cur.opt().unwrap(), None);
        assert_eq!(cur.opt().unwrap(), Some(7));
        assert!(cur.flag().unwrap());
        assert!(!cur.flag().unwrap());
        assert_eq!(cur.word().unwrap(), 42);
        cur.finish().unwrap();
    }

    #[test]
    fn cursor_rejects_short_and_trailing_streams() {
        let words = [1u64];
        let mut cur = WordCursor::new(&words);
        assert!(cur.opt().is_err(), "flag=1 with no value word");

        let words = [0u64, 9];
        let mut cur = WordCursor::new(&words);
        assert_eq!(cur.opt().unwrap(), None);
        assert_eq!(cur.remaining(), 1);
        assert!(cur.finish().is_err(), "unread word must fail finish");

        let words = [2u64];
        let mut cur = WordCursor::new(&words);
        assert!(cur.flag().is_err(), "flag word 2 is malformed");
    }

    #[test]
    fn counts_must_fit_the_remaining_words() {
        // Two 2-word entries fit in the four words after the count.
        let words = [2u64, 1, 2, 3, 4];
        assert_eq!(WordCursor::new(&words).next_count(2), Ok(2));
        assert!(WordCursor::new(&words).next_count(3).is_err());
        let words = [3u64, 1, 2, 3, 4];
        assert!(WordCursor::new(&words).next_count(2).is_err());
        // A count whose word total overflows is refused, not wrapped.
        let words = [u64::MAX, 0];
        assert!(WordCursor::new(&words).next_count(2).is_err());
        let words = [0u64];
        assert_eq!(WordCursor::new(&words).next_count(5), Ok(0));
    }
}
