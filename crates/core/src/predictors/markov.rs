//! Counted Markov-chain predictors (order 1 and order 2).
//!
//! §4.2 of the paper contrasts the DPD with "statistical models such as
//! Markov models \[which\] require more training time and … usually do not
//! detect periodicities and are not prepared to predict several future
//! values". These implementations are the strongest reasonable version of
//! that family: full transition counts with most-likely-successor
//! prediction, and deep horizons served by greedy chain walking.

use super::{HydrateError, Predictor, WordCursor};
use crate::stream::Symbol;
use std::collections::HashMap;

/// Context for the transition table: one or two preceding symbols.
type Context = (Symbol, Option<Symbol>);

/// Most-likely-next-symbol Markov predictor.
#[derive(Debug, Clone)]
pub struct MarkovPredictor {
    order: usize,
    /// context → successor → count
    table: HashMap<Context, HashMap<Symbol, u64>>,
    /// Most recent symbols, newest last (at most `order` entries).
    recent: Vec<Symbol>,
    name: &'static str,
}

impl MarkovPredictor {
    /// Order-1 chain: context is the last symbol.
    pub fn order1() -> Self {
        MarkovPredictor {
            order: 1,
            table: HashMap::new(),
            recent: Vec::new(),
            name: "markov1",
        }
    }

    /// Order-2 chain: context is the last two symbols.
    pub fn order2() -> Self {
        MarkovPredictor {
            order: 2,
            table: HashMap::new(),
            recent: Vec::new(),
            name: "markov2",
        }
    }

    fn context_of(&self, recent: &[Symbol]) -> Option<Context> {
        match (self.order, recent) {
            (1, [.., a]) => Some((*a, None)),
            (2, [.., a, b]) => Some((*b, Some(*a))),
            _ => None,
        }
    }

    fn most_likely(&self, ctx: &Context) -> Option<Symbol> {
        let succ = self.table.get(ctx)?;
        // Deterministic argmax: highest count, ties toward smaller symbol.
        succ.iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&s, _)| s)
    }
}

impl Predictor for MarkovPredictor {
    fn name(&self) -> &'static str {
        self.name
    }

    fn observe(&mut self, v: Symbol) {
        if let Some(ctx) = self.context_of(&self.recent) {
            *self.table.entry(ctx).or_default().entry(v).or_insert(0) += 1;
        }
        self.recent.push(v);
        if self.recent.len() > self.order {
            self.recent.remove(0);
        }
    }

    fn predict(&self, horizon: usize) -> Option<Symbol> {
        if horizon == 0 {
            return None;
        }
        // Greedy walk: repeatedly take the most likely successor.
        let mut recent = self.recent.clone();
        let mut out = None;
        for _ in 0..horizon {
            let ctx = self.context_of(&recent)?;
            let next = self.most_likely(&ctx)?;
            recent.push(next);
            if recent.len() > self.order {
                recent.remove(0);
            }
            out = Some(next);
        }
        out
    }

    fn reset(&mut self) {
        self.table.clear();
        self.recent.clear();
    }

    fn export_words(&self, out: &mut Vec<u64>) {
        out.push(self.order as u64);
        out.push(self.recent.len() as u64);
        out.extend_from_slice(&self.recent);
        // Contexts sorted (Option<u64> is Ord), successors sorted.
        let mut ctxs: Vec<&Context> = self.table.keys().collect();
        ctxs.sort_unstable();
        out.push(ctxs.len() as u64);
        for ctx in ctxs {
            out.push(ctx.0);
            match ctx.1 {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    out.push(b);
                }
            }
            let succ = &self.table[ctx];
            let mut pairs: Vec<(Symbol, u64)> = succ.iter().map(|(&s, &c)| (s, c)).collect();
            pairs.sort_unstable();
            out.push(pairs.len() as u64);
            for (s, c) in pairs {
                out.push(s);
                out.push(c);
            }
        }
    }

    fn hydrate_words(&mut self, cur: &mut WordCursor<'_>) -> Result<(), HydrateError> {
        let order = cur.next_len()?;
        if order != self.order {
            return Err(HydrateError("markov order disagrees with config"));
        }
        let n = cur.next_len()?;
        if n > self.order {
            return Err(HydrateError("markov context longer than its order"));
        }
        self.recent.clear();
        for _ in 0..n {
            self.recent.push(cur.word()?);
        }
        self.table.clear();
        // A context is at least its symbol, an option flag and a
        // successor count; a successor is a symbol and a count.
        let ctxs = cur.next_count(3)?;
        self.table.reserve(ctxs);
        for _ in 0..ctxs {
            let a = cur.word()?;
            let b = cur.opt()?;
            let succs = cur.next_count(2)?;
            let mut succ = HashMap::with_capacity(succs);
            for _ in 0..succs {
                let s = cur.word()?;
                let c = cur.word()?;
                if succ.insert(s, c).is_some() {
                    return Err(HydrateError("duplicate markov successor"));
                }
            }
            if self.table.insert((a, b), succ).is_some() {
                return Err(HydrateError("duplicate markov context"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order1_learns_majority_transition() {
        let mut p = MarkovPredictor::order1();
        // 1 → 2 twice, 1 → 3 once.
        for &v in &[1u64, 2, 1, 3, 1, 2, 1] {
            p.observe(v);
        }
        assert_eq!(p.predict(1), Some(2));
    }

    #[test]
    fn order1_walks_deep_horizons() {
        let mut p = MarkovPredictor::order1();
        for _ in 0..5 {
            for &v in &[1u64, 2, 3] {
                p.observe(v);
            }
        }
        // last = 3 → 1 → 2 → 3 ...
        assert_eq!(p.predict(1), Some(1));
        assert_eq!(p.predict(2), Some(2));
        assert_eq!(p.predict(3), Some(3));
        assert_eq!(p.predict(4), Some(1));
    }

    #[test]
    fn order2_disambiguates_shared_successor() {
        // Pattern 1 1 2 2 (period 4): order-1 sees 1→{1,2} at 50/50, while
        // order-2 contexts (1,1)→2, (1,2)→2, (2,2)→1, (2,1)→1 are exact.
        let mut p1 = MarkovPredictor::order1();
        let mut p2 = MarkovPredictor::order2();
        for _ in 0..10 {
            for &v in &[1u64, 1, 2, 2] {
                p1.observe(v);
                p2.observe(v);
            }
        }
        // Stream ends ... 2 2; true next is 1.
        assert_eq!(p2.predict(1), Some(1));
        // And (2,2) is followed by 1 then 1: depth-2 walk gives 1 as well.
        assert_eq!(p2.predict(2), Some(1));
    }

    #[test]
    fn untrained_context_yields_none() {
        let mut p = MarkovPredictor::order2();
        p.observe(1);
        assert_eq!(p.predict(1), None); // needs 2 symbols of context
        p.observe(2);
        assert_eq!(p.predict(1), None); // (1,2) never seen as context
    }

    #[test]
    fn deterministic_tie_break_prefers_smaller_symbol() {
        let mut p = MarkovPredictor::order1();
        for &v in &[1u64, 5, 1, 3, 1] {
            p.observe(v);
        }
        // 1 → 5 and 1 → 3 both once: tie broken toward 3.
        assert_eq!(p.predict(1), Some(3));
    }

    #[test]
    fn reset_clears_table_and_context() {
        let mut p = MarkovPredictor::order1();
        p.observe(1);
        p.observe(2);
        p.reset();
        assert_eq!(p.predict(1), None);
    }
}
