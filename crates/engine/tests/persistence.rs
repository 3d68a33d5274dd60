//! The persistent engine's load-bearing property: for ANY interleaving
//! of observe/predict batches, forced evictions, TTL expiries and
//! memory-reclamation sweeps, the persistent-worker engine at any shard
//! count is bit-identical to (a) a one-shard engine fed the same
//! operations and (b) the sequential reference of one raw-symbol
//! `DpdPredictor` per stream with the same eviction rule applied by
//! hand — including across eviction-and-reload of a stream, which must
//! restart cold.

use mpp_core::dpd::{DpdConfig, DpdPredictor};
use mpp_core::predictors::Predictor;
use mpp_engine::{EngineConfig, Observation, PersistentEngine, Query, StreamKey, StreamKind};
use proptest::prelude::*;
use std::collections::HashMap;

const RANKS: u32 = 6;
const HORIZONS: u32 = 4;

/// Sequential per-stream reference with the engine's eviction rule:
/// raw symbols, one predictor per stream, reset on forced eviction or
/// when the engine-time gap exceeds the TTL.
struct RefBank {
    cfg: DpdConfig,
    ttl: Option<u64>,
    clock: u64,
    slots: HashMap<StreamKey, (DpdPredictor, u64)>,
}

impl RefBank {
    fn new(cfg: DpdConfig, ttl: Option<u64>) -> Self {
        RefBank {
            cfg,
            ttl,
            clock: 0,
            slots: HashMap::new(),
        }
    }

    fn expired(&self, last_seen: u64, now: u64) -> bool {
        matches!(self.ttl, Some(t) if now.saturating_sub(last_seen) > t)
    }

    fn observe_batch(&mut self, batch: &[Observation]) {
        for obs in batch {
            self.clock += 1;
            let at = self.clock;
            let cfg = &self.cfg;
            let ttl = self.ttl;
            let (predictor, last_seen) = self
                .slots
                .entry(obs.key)
                .or_insert_with(|| (DpdPredictor::new(cfg.clone()), 0));
            let gap_expired = matches!(ttl, Some(t) if at.saturating_sub(*last_seen) > t);
            if *last_seen > 0 && gap_expired {
                *predictor = DpdPredictor::new(cfg.clone());
            }
            predictor.observe(obs.value);
            *last_seen = at;
        }
    }

    fn predict(&self, key: StreamKey, horizon: u32) -> Option<u64> {
        let (predictor, last_seen) = self.slots.get(&key)?;
        if self.expired(*last_seen, self.clock) {
            return None;
        }
        predictor.predict(horizon as usize)
    }

    fn evict(&mut self, key: StreamKey) {
        self.slots.remove(&key);
    }

    /// Whether `key` holds a live (non-expired) stream.
    fn live_contains(&self, key: StreamKey) -> bool {
        self.slots
            .get(&key)
            .is_some_and(|(_, seen)| !self.expired(*seen, self.clock))
    }

    /// Streams still live (not expired) — what the engine must have
    /// resident after a full sweep.
    fn live_count(&self) -> usize {
        self.slots
            .values()
            .filter(|(_, seen)| !self.expired(*seen, self.clock))
            .count()
    }
}

/// One generated operation, decoded from a flat integer tuple so the
/// vendored proptest's strategies (ranges + tuples + vec) suffice.
#[derive(Debug, Clone)]
enum Op {
    /// Ingest a small deterministic batch derived from the seeds.
    ObserveBatch(Vec<Observation>),
    /// Compare predictions for one key at all horizons.
    Predict(StreamKey),
    /// Forcibly evict one stream everywhere (engine + reference).
    Evict(StreamKey),
    /// Memory-reclamation sweep on the engines only: must be invisible.
    Sweep,
}

fn decode_key(rank: u32, kind: u8) -> StreamKey {
    StreamKey::new(rank % RANKS, StreamKind::ALL[kind as usize % 3])
}

fn decode_op((sel, rank, kind, value, len): (u8, u32, u8, u64, u8)) -> Op {
    match sel % 8 {
        // Half the weight on ingest so streams actually train.
        0..=3 => {
            let events = (0..u64::from(len) + 1)
                .map(|j| {
                    let r = (rank + j as u32) % RANKS;
                    let k = StreamKind::ALL[((u32::from(kind) + r) % 3) as usize];
                    // Per-stream periodic-ish values with occasional breaks.
                    Observation::new(StreamKey::new(r, k), (value + j) % 5)
                })
                .collect();
            Op::ObserveBatch(events)
        }
        4 | 5 => Op::Predict(decode_key(rank, kind)),
        6 => Op::Evict(decode_key(rank, kind)),
        _ => Op::Sweep,
    }
}

/// Regression for the cross-tenant TTL bug: engine time used to be a
/// single member-wide event clock, so a chatty co-resident job's
/// traffic advanced the clock that expired a quiet job's idle
/// streams. Time is per-job now — only a job's own events age its
/// streams — so a tenant flood can never expire another tenant's
/// state. (This test fails on the old shared-clock semantics: the
/// flood pushes the global clock far past the quiet job's TTL.)
#[test]
fn ttl_is_isolated_per_job_on_one_member() {
    const TTL: u64 = 50;
    const QUIET: u32 = 1;
    const CHATTY: u32 = 2;
    let ecfg = EngineConfig {
        shards: 4,
        ttl: Some(TTL),
        ..EngineConfig::default()
    };
    let persistent = PersistentEngine::new(ecfg.clone());
    let client = persistent.client();
    let solo_engine = PersistentEngine::new(EngineConfig { shards: 1, ..ecfg });
    let solo = solo_engine.client();

    // Train the quiet tenant, then leave it idle.
    let quiet_key = StreamKey::for_job(QUIET, 0, StreamKind::Sender);
    let train: Vec<Observation> = (0..20)
        .map(|i| Observation::new(quiet_key, i % 2))
        .collect();
    client.observe_batch(&train);
    solo.observe_batch(&train);
    let before = client.predict(quiet_key, 1);
    assert!(before.is_some(), "quiet stream trained to a lock");
    assert_eq!(solo.predict(quiet_key, 1), before);

    // Flood the chatty tenant far past the quiet tenant's TTL.
    let flood: Vec<Observation> = (0..TTL * 40)
        .map(|i| {
            Observation::new(
                StreamKey::for_job(CHATTY, (i % 4) as u32, StreamKind::ALL[(i % 3) as usize]),
                i % 7,
            )
        })
        .collect();
    client.observe_batch(&flood);
    solo.observe_batch(&flood);

    // The quiet tenant aged 0 events on its own clock: still live,
    // still predicting the same value, and a sweep reclaims nothing
    // of it.
    client.sweep_expired();
    solo.sweep_expired();
    assert_eq!(
        client.predict(quiet_key, 1),
        before,
        "flood expired a co-tenant"
    );
    assert_eq!(
        solo.predict(quiet_key, 1),
        before,
        "flood expired a co-tenant (1 shard)"
    );
    assert!(client.resident_jobs().contains(&QUIET));
    assert!(solo.resident_jobs().contains(&QUIET));

    // Per-job time still expires: the quiet tenant's own next event
    // arrives after a gap beyond its TTL on its own clock — the
    // stream restarts cold (lazy reset), proving expiry works without
    // the shared clock.
    let idle: Vec<Observation> = (0..TTL + 1)
        .map(|i| Observation::new(StreamKey::for_job(QUIET, 9, StreamKind::Tag), i % 3))
        .collect();
    client.observe_batch(&idle);
    solo.observe_batch(&idle);
    let cold = client.predict(quiet_key, 1);
    assert_eq!(cold, None, "a job's own gap past TTL must still expire it");
    assert_eq!(solo.predict(quiet_key, 1), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Any interleaving of observe/predict batches, forced evictions
    /// and sweeps: `shards`-shard engine == one-shard engine ==
    /// sequential reference, bit-for-bit, for every stream and horizon
    /// — under TTL expiry and across eviction-and-reload.
    #[test]
    fn persistent_matches_one_shard_and_sequential_reference(
        raw_ops in prop::collection::vec(
            (0u8..8, 0u32..6, 0u8..3, 0u64..5, 0u8..20), 1..50),
        shards in 1usize..6,
        ttl_sel in 0u64..60,
    ) {
        // A third of the cases run without TTL; the rest with a small
        // TTL so expiry genuinely fires mid-sequence.
        let ttl = if ttl_sel < 20 { None } else { Some(ttl_sel) };
        let cfg = DpdConfig { window: 48, max_lag: 16, ..DpdConfig::default() };
        let ecfg = EngineConfig {
            shards,
            dpd: cfg.clone(),
            ttl,
            ..EngineConfig::default()
        };
        let persistent = PersistentEngine::new(ecfg.clone());
        let client = persistent.client();
        let solo_engine = PersistentEngine::new(EngineConfig { shards: 1, ..ecfg });
        let solo = solo_engine.client();
        let mut reference = RefBank::new(cfg, ttl);
        let mut total_events = 0u64;

        let ops: Vec<Op> = raw_ops.into_iter().map(decode_op).collect();
        for op in &ops {
            match op {
                Op::ObserveBatch(events) => {
                    client.observe_batch(events);
                    solo.observe_batch(events);
                    reference.observe_batch(events);
                    total_events += events.len() as u64;
                }
                Op::Predict(key) => {
                    for h in 1..=HORIZONS {
                        let want = reference.predict(*key, h);
                        prop_assert_eq!(
                            client.predict(*key, h), want,
                            "persistent diverged mid-sequence on {:?} +{}", key, h
                        );
                        prop_assert_eq!(
                            solo.predict(*key, h), want,
                            "1-shard diverged mid-sequence on {:?} +{}", key, h
                        );
                    }
                }
                Op::Evict(key) => {
                    // Evicted-and-reloaded streams must restart cold.
                    // A *live* stream is resident in every engine, so
                    // both must report it evicted; for expired streams
                    // the return value depends on the sweep schedule
                    // (workers sweep only the shards that receive
                    // traffic), which legitimately depends on the shard
                    // count and is not asserted.
                    let live = reference.live_contains(*key);
                    let a = client.evict_stream(*key);
                    let b = solo.evict_stream(*key);
                    if live {
                        prop_assert!(a && b, "live stream must be resident in both engines");
                    }
                    reference.evict(*key);
                }
                Op::Sweep => {
                    // Reclamation must never change anything observable.
                    client.sweep_expired();
                    solo.sweep_expired();
                }
            }
        }

        // Final exhaustive comparison over every possible stream.
        let mut queries = Vec::new();
        let mut expected = Vec::new();
        for rank in 0..RANKS {
            for kind in StreamKind::ALL {
                let key = StreamKey::new(rank, kind);
                for h in 1..=HORIZONS {
                    queries.push(Query::new(key, h));
                    expected.push(reference.predict(key, h));
                }
            }
        }
        let mut got = Vec::new();
        client.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &expected, "persistent final state diverged");
        solo.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &expected, "1-shard final state diverged");

        // Metrics: both engines saw every event, and after a full sweep
        // both hold exactly the reference's live streams.
        let (pm, sm) = (client.metrics_total(), solo.metrics_total());
        prop_assert_eq!(pm.events_ingested, total_events);
        prop_assert_eq!(sm.events_ingested, total_events);
        prop_assert_eq!(pm.hits, sm.hits, "scoring diverged between shard counts");
        prop_assert_eq!(pm.misses, sm.misses);
        prop_assert_eq!(pm.abstentions, sm.abstentions);
        client.sweep_expired();
        solo.sweep_expired();
        prop_assert_eq!(client.stream_count(), reference.live_count());
        prop_assert_eq!(solo.stream_count(), reference.live_count());
    }
}
