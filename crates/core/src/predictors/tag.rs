//! Tagging heuristic: remember, for every symbol, what followed it last
//! time (Afsahi & Dimopoulos' "tagging" family).
//!
//! This is an order-1 transition table with last-writer-wins updates —
//! cheaper and faster-adapting than a counted Markov chain, but it
//! thrashes when a symbol is followed by different successors in
//! different phases of a long pattern.

use super::{push_opt, HydrateError, Predictor, WordCursor};
use crate::stream::Symbol;
use std::collections::HashMap;

/// Predicts the successor that followed the current value most recently.
#[derive(Debug, Clone, Default)]
pub struct TagPredictor {
    next_of: HashMap<Symbol, Symbol>,
    last: Option<Symbol>,
}

impl TagPredictor {
    /// Creates an untrained predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Predictor for TagPredictor {
    fn name(&self) -> &'static str {
        "tag"
    }

    fn observe(&mut self, v: Symbol) {
        if let Some(prev) = self.last {
            self.next_of.insert(prev, v);
        }
        self.last = Some(v);
    }

    fn predict(&self, horizon: usize) -> Option<Symbol> {
        if horizon == 0 {
            return None;
        }
        // Walk the transition map `horizon` steps from the last value.
        let mut cur = self.last?;
        for _ in 0..horizon {
            cur = *self.next_of.get(&cur)?;
        }
        Some(cur)
    }

    fn reset(&mut self) {
        self.next_of.clear();
        self.last = None;
    }

    fn export_words(&self, out: &mut Vec<u64>) {
        let mut pairs: Vec<(Symbol, Symbol)> = self.next_of.iter().map(|(&f, &t)| (f, t)).collect();
        pairs.sort_unstable();
        out.push(pairs.len() as u64);
        for (f, t) in pairs {
            out.push(f);
            out.push(t);
        }
        push_opt(out, self.last);
    }

    fn hydrate_words(&mut self, cur: &mut WordCursor<'_>) -> Result<(), HydrateError> {
        self.next_of.clear();
        let n = cur.next_count(2)?;
        self.next_of.reserve(n);
        for _ in 0..n {
            let f = cur.word()?;
            let t = cur.word()?;
            if self.next_of.insert(f, t).is_some() {
                return Err(HydrateError("duplicate tag transition"));
            }
        }
        self.last = cur.opt()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_transitions_after_one_pass() {
        let mut p = TagPredictor::new();
        for &v in &[1u64, 2, 3, 1] {
            p.observe(v);
        }
        assert_eq!(p.predict(1), Some(2));
        assert_eq!(p.predict(2), Some(3));
        assert_eq!(p.predict(3), Some(1));
        assert_eq!(p.predict(6), Some(1));
    }

    #[test]
    fn unseen_transition_stops_the_walk() {
        let mut p = TagPredictor::new();
        p.observe(1);
        p.observe(2);
        // last = 2, but 2's successor is unknown.
        assert_eq!(p.predict(1), None);
    }

    #[test]
    fn last_writer_wins() {
        let mut p = TagPredictor::new();
        for &v in &[1u64, 2, 1, 3, 1] {
            p.observe(v);
        }
        // 1 was followed by 2 first, then by 3: tag now says 3.
        assert_eq!(p.predict(1), Some(3));
    }

    #[test]
    fn self_loop_predicts_constant() {
        let mut p = TagPredictor::new();
        p.observe(4);
        p.observe(4);
        assert_eq!(p.predict(10), Some(4));
    }

    #[test]
    fn reset_clears_table() {
        let mut p = TagPredictor::new();
        p.observe(1);
        p.observe(2);
        p.reset();
        p.observe(1);
        assert_eq!(p.predict(1), None);
    }
}
