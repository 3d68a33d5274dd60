//! Most-frequent-value baseline.
//!
//! Predicts the modal symbol of everything seen so far, at every horizon.
//! This is the natural "statistical" strawman: it captures message-size
//! locality (NAS codes use 2–3 sizes, Kim & Lilja 1998) but is blind to
//! temporal order, so its `+1` accuracy is bounded by the mode frequency.

use super::{HydrateError, Predictor, WordCursor};
use crate::stream::Symbol;
use std::collections::HashMap;

/// Predicts the most frequently observed symbol.
#[derive(Debug, Clone, Default)]
pub struct FrequencyPredictor {
    counts: HashMap<Symbol, u64>,
    /// Cached (value, count) of the current mode, updated on observe.
    mode: Option<(Symbol, u64)>,
}

impl FrequencyPredictor {
    /// Creates an untrained predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occurrence count for `v` so far.
    pub fn count(&self, v: Symbol) -> u64 {
        self.counts.get(&v).copied().unwrap_or(0)
    }
}

impl Predictor for FrequencyPredictor {
    fn name(&self) -> &'static str {
        "frequency"
    }

    fn observe(&mut self, v: Symbol) {
        let c = self.counts.entry(v).or_insert(0);
        *c += 1;
        let c = *c;
        // The mode can only change in favour of the value just seen.
        match self.mode {
            Some((_, best)) if c > best => self.mode = Some((v, c)),
            Some((m, best)) if m == v && c >= best => self.mode = Some((v, c)),
            None => self.mode = Some((v, c)),
            _ => {}
        }
    }

    fn predict(&self, horizon: usize) -> Option<Symbol> {
        if horizon == 0 {
            return None;
        }
        self.mode.map(|(v, _)| v)
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.mode = None;
    }

    fn export_words(&self, out: &mut Vec<u64>) {
        // Counts in sorted symbol order for deterministic bytes. The
        // cached mode is exported explicitly: its first-seen-wins
        // tie-break depends on arrival order, which the counts alone
        // cannot reconstruct.
        let mut pairs: Vec<(Symbol, u64)> = self.counts.iter().map(|(&v, &c)| (v, c)).collect();
        pairs.sort_unstable();
        out.push(pairs.len() as u64);
        for (v, c) in pairs {
            out.push(v);
            out.push(c);
        }
        match self.mode {
            None => out.push(0),
            Some((v, c)) => {
                out.push(1);
                out.push(v);
                out.push(c);
            }
        }
    }

    fn hydrate_words(&mut self, cur: &mut WordCursor<'_>) -> Result<(), HydrateError> {
        self.counts.clear();
        let n = cur.next_count(2)?;
        self.counts.reserve(n);
        for _ in 0..n {
            let v = cur.word()?;
            let c = cur.word()?;
            if self.counts.insert(v, c).is_some() {
                return Err(HydrateError("duplicate frequency symbol"));
            }
        }
        self.mode = match cur.flag()? {
            false => None,
            true => Some((cur.word()?, cur.word()?)),
        };
        if let Some((v, c)) = self.mode {
            if self.counts.get(&v) != Some(&c) {
                return Err(HydrateError("frequency mode disagrees with counts"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_the_mode() {
        let mut p = FrequencyPredictor::new();
        for v in [1u64, 2, 2, 3, 2, 1] {
            p.observe(v);
        }
        assert_eq!(p.predict(1), Some(2));
        assert_eq!(p.predict(4), Some(2));
        assert_eq!(p.count(2), 3);
        assert_eq!(p.count(9), 0);
    }

    #[test]
    fn mode_switches_when_overtaken() {
        let mut p = FrequencyPredictor::new();
        p.observe(1);
        assert_eq!(p.predict(1), Some(1));
        p.observe(2);
        p.observe(2);
        assert_eq!(p.predict(1), Some(2));
    }

    #[test]
    fn first_seen_wins_ties_until_overtaken() {
        let mut p = FrequencyPredictor::new();
        p.observe(5);
        p.observe(6); // tie 1-1: mode stays 5
        assert_eq!(p.predict(1), Some(5));
    }

    #[test]
    fn reset_clears_counts() {
        let mut p = FrequencyPredictor::new();
        p.observe(4);
        p.reset();
        assert_eq!(p.predict(1), None);
        assert_eq!(p.count(4), 0);
    }
}
