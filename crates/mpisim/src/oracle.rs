//! Receiver-side arrival prediction hook for the rendezvous protocol.
//!
//! §2.3 of the paper: "the receiver … predict\[s\] that a large message
//! will come from a given sender, then allocate\[s\] the necessary memory
//! and then inform\[s\] the sender *before it even knows such a message is
//! to be sent*". In protocol terms: a correctly predicted large message
//! skips the request/clear-to-send round trip and travels like an eager
//! one.
//!
//! The simulator stays independent of any particular predictor: it only
//! consults an [`ArrivalOracle`] the world was configured with. The
//! DPD-backed implementation lives in `mpp-runtime` (`DpdOracle`), which
//! closes the loop from the paper's §4 predictor to its §2.3 use case —
//! measured in end-to-end virtual makespan, not just per-message cost
//! arithmetic.

use crate::message::{Rank, Tag};

/// Receiver-side predictor consulted when a rendezvous-sized message is
/// matched: did this receiver pre-allocate (and pre-grant) for it?
///
/// `observe` is called for every completed delivery in logical order, so
/// implementations see exactly the stream the paper's predictor sees —
/// sender, size *and* tag, the three attribute streams a serving engine
/// tracks per rank.
pub trait ArrivalOracle: Send {
    /// Records a completed delivery at this receiver.
    fn observe(&mut self, src: Rank, bytes: u64, tag: Tag);

    /// Whether a buffer (and an eager grant) was standing for a message
    /// of `bytes` from `src`. Called *before* `observe` for the same
    /// message. Implementations may consume the grant (one grant, one
    /// message).
    fn expects(&mut self, src: Rank, bytes: u64) -> bool;
}

/// Builds one oracle per rank at world start.
pub trait OracleFactory: Send + Sync {
    /// Creates the oracle for `rank`.
    fn build(&self, rank: Rank) -> Box<dyn ArrivalOracle>;
}

/// Test/limit-study oracle that expects everything: every rendezvous
/// message travels eagerly (the §2.3 lower bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectOracle;

impl ArrivalOracle for PerfectOracle {
    fn observe(&mut self, _src: Rank, _bytes: u64, _tag: Tag) {}
    fn expects(&mut self, _src: Rank, _bytes: u64) -> bool {
        true
    }
}

impl OracleFactory for PerfectOracle {
    fn build(&self, _rank: Rank) -> Box<dyn ArrivalOracle> {
        Box::new(PerfectOracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::config::WorldConfig;
    use crate::engine::{RankProgram, World};
    use crate::net::IdealNetwork;

    struct BigPipeline;
    impl RankProgram for BigPipeline {
        fn run(&self, c: &mut Comm) {
            // Rank 0 streams large messages to rank 1, which posts late
            // every time: without prediction each message pays the
            // handshake serialisation.
            const N: u64 = 20;
            if c.rank() == 0 {
                for i in 0..N {
                    c.send(1, 1, 1 << 20, i);
                }
            } else {
                for i in 0..N {
                    let m = c.recv(0, 1);
                    assert_eq!(m.payload, i);
                    c.compute(50_000);
                }
            }
        }
    }

    #[test]
    fn perfect_oracle_strictly_reduces_makespan() {
        let cfg = WorldConfig::new(2).seed(1).noiseless();
        let base = World::new(cfg.clone(), IdealNetwork::from_config(&cfg)).run(&BigPipeline);
        let oracled = World::new(cfg.clone(), IdealNetwork::from_config(&cfg))
            .with_oracle(PerfectOracle)
            .run(&BigPipeline);
        assert!(
            oracled.makespan() < base.makespan(),
            "predicted pre-allocation must shorten the run: {} vs {}",
            oracled.makespan(),
            base.makespan()
        );
        // Each of the 20 messages saves at least one CTS latency.
        let saved = base.makespan() - oracled.makespan();
        assert!(saved >= 20 * cfg.latency_ns / 2, "saved only {saved} ns");
    }

    #[test]
    fn oracle_does_not_change_message_contents_or_counts() {
        let cfg = WorldConfig::new(2).seed(1);
        let net = crate::net::JitterNetwork::from_config(&cfg);
        let base = World::new(cfg.clone(), net.clone()).run(&BigPipeline);
        let oracled = World::new(cfg, net)
            .with_oracle(PerfectOracle)
            .run(&BigPipeline);
        assert_eq!(base.total_receives(), oracled.total_receives());
        let a = base.receives_of(1);
        let b = oracled.receives_of(1);
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.bytes, y.bytes);
            assert_eq!(x.logical_idx, y.logical_idx);
        }
    }
}
