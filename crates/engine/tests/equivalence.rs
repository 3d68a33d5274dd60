//! The engine's load-bearing property: for ANY interleaved event
//! sequence, ANY shard count, and ANY batch split, batched sharded
//! serving is bit-identical to sequentially driving one `DpdPredictor`
//! per stream on the raw symbols. Sharding and interning are throughput
//! devices, never semantics devices — also when a stream interns more
//! symbols than a byte can number and its detector's history widens.

use mpp_core::dpd::{DpdConfig, DpdPredictor};
use mpp_core::predictors::Predictor;
use mpp_engine::{
    EngineClient, EngineConfig, JobId, Observation, PersistentEngine, Query, StreamKey, StreamKind,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Decodes a generated `(rank, kind, value)` triple into an observation.
fn decode(rank: u32, kind: u8, value: u64) -> Observation {
    let kind = StreamKind::ALL[kind as usize % 3];
    Observation::new(StreamKey::new(rank, kind), value)
}

/// Sequential per-stream reference: one raw-symbol predictor per key.
fn reference_bank(events: &[Observation], cfg: &DpdConfig) -> HashMap<StreamKey, DpdPredictor> {
    let mut bank: HashMap<StreamKey, DpdPredictor> = HashMap::new();
    for obs in events {
        bank.entry(obs.key)
            .or_insert_with(|| DpdPredictor::new(cfg.clone()))
            .observe(obs.value);
    }
    bank
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Predictions and detected periods agree with the sequential
    /// reference for every stream and horizon, regardless of shard
    /// count and batch split.
    #[test]
    fn sharded_batched_equals_sequential(
        raw in prop::collection::vec((0u32..16, 0u8..3, 0u64..8), 0..400),
        shards in 1usize..6,
        batch_size in 1usize..64,
    ) {
        let cfg = DpdConfig { window: 64, max_lag: 32, ..DpdConfig::default() };
        let events: Vec<Observation> =
            raw.iter().map(|&(r, k, v)| decode(r, k, v)).collect();

        let engine = PersistentEngine::new(EngineConfig {
            shards,
            dpd: cfg.clone(),
            ttl: None,
            ..EngineConfig::default()
        })
        .client();
        for chunk in events.chunks(batch_size.max(1)) {
            engine.observe_batch(chunk);
        }

        let bank = reference_bank(&events, &cfg);
        prop_assert_eq!(engine.stream_count(), bank.len());
        prop_assert_eq!(engine.metrics_total().events_ingested, events.len() as u64);

        let mut queries = Vec::new();
        let mut expected = Vec::new();
        for (key, predictor) in &bank {
            prop_assert_eq!(
                engine.period_of(*key),
                predictor.period(),
                "period diverged on {:?}", key
            );
            for h in 1..=5u32 {
                queries.push(Query::new(*key, h));
                expected.push(predictor.predict(h as usize));
            }
        }
        let mut got = Vec::new();
        engine.predict_batch(&queries, &mut got);
        prop_assert_eq!(got, expected);
    }

    /// Shard count never changes results: engines with different shard
    /// counts agree with each other on everything.
    #[test]
    fn shard_count_is_invisible(
        raw in prop::collection::vec((0u32..32, 0u8..3, 0u64..5), 0..300),
        shards_a in 1usize..8,
        shards_b in 1usize..8,
    ) {
        let events: Vec<Observation> =
            raw.iter().map(|&(r, k, v)| decode(r, k, v)).collect();
        let build = |shards: usize| {
            let e = PersistentEngine::new(EngineConfig {
                shards,
                dpd: DpdConfig { window: 64, max_lag: 16, ..DpdConfig::default() },
                ttl: None,
                ..EngineConfig::default()
            })
            .client();
            e.observe_batch(&events);
            e
        };
        let a = build(shards_a);
        let b = build(shards_b);
        let queries: Vec<Query> = events
            .iter()
            .flat_map(|o| (1..=3u32).map(move |h| Query::new(o.key, h)))
            .collect();
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        a.predict_batch(&queries, &mut ra);
        b.predict_batch(&queries, &mut rb);
        prop_assert_eq!(ra, rb);
        // Aggregate scoring metrics are shard-layout independent too.
        let (ta, tb) = (a.metrics_total(), b.metrics_total());
        prop_assert_eq!(ta.events_ingested, tb.events_ingested);
        prop_assert_eq!(ta.hits, tb.hits);
        prop_assert_eq!(ta.misses, tb.misses);
        prop_assert_eq!(ta.period_churn, tb.period_churn);
        prop_assert_eq!(ta.resident_streams, tb.resident_streams);
    }

    /// Batch boundaries are invisible: one big batch equals
    /// event-at-a-time ingestion.
    #[test]
    fn batch_split_is_invisible(
        raw in prop::collection::vec((0u32..8, 0u8..3, 0u64..6), 0..250),
        shards in 1usize..5,
    ) {
        let events: Vec<Observation> =
            raw.iter().map(|&(r, k, v)| decode(r, k, v)).collect();
        let cfg = EngineConfig {
            shards,
            dpd: DpdConfig { window: 32, max_lag: 8, ..DpdConfig::default() },
            ttl: None,
            ..EngineConfig::default()
        };
        let whole = PersistentEngine::new(cfg.clone()).client();
        whole.observe_batch(&events);
        let single = PersistentEngine::new(cfg).client();
        for obs in &events {
            single.observe(obs.key, obs.value);
        }
        for obs in &events {
            for h in 1..=4u32 {
                prop_assert_eq!(
                    whole.predict(obs.key, h),
                    single.predict(obs.key, h)
                );
            }
        }
    }
}

/// Raw symbols of stream `i`: a short periodic pattern over small sizes,
/// then 300 sizes never seen before (so the stream interns its 257th
/// symbol partway through), then a pattern mixing early and late sizes.
/// The first phase's length differs by stream, so streams cross the
/// byte boundary at different points of the interleaved sequence.
fn byte_crossing_stream(i: u64) -> Vec<u64> {
    let early: Vec<u64> = (0..3 + i % 5).map(|k| 8 * (k + 1)).collect();
    let fresh = |k: u64| 1_000_000 + 1_000 * i + k;
    let late = [early[0], fresh(299), early[1], 5_000_000 + i, fresh(7)];
    let mut out: Vec<u64> = (0..120 + 20 * (i % 7))
        .map(|t| early[t as usize % early.len()])
        .collect();
    out.extend((0..300).map(fresh));
    out.extend((0..200).map(|t| late[t % late.len()]));
    out
}

/// Per-stream raw predictors plus the per-job scoring the engine keeps:
/// each observation is a hit, miss or abstention of the standing `+1`
/// forecast, and every change of the locked period is churn.
#[derive(Default)]
struct ScoredBank {
    streams: HashMap<StreamKey, (DpdPredictor, Option<usize>)>,
    /// `(events, hits, misses, abstentions, churn)` per job.
    jobs: BTreeMap<JobId, [u64; 5]>,
}

impl ScoredBank {
    fn observe(&mut self, obs: &Observation, cfg: &DpdConfig) {
        let (predictor, last_period) = self
            .streams
            .entry(obs.key)
            .or_insert_with(|| (DpdPredictor::new(cfg.clone()), None));
        let job = self.jobs.entry(obs.key.job).or_default();
        job[0] += 1;
        match predictor.predict(1) {
            Some(p) if p == obs.value => job[1] += 1,
            Some(_) => job[2] += 1,
            None => job[3] += 1,
        }
        predictor.observe(obs.value);
        if predictor.period() != *last_period {
            job[4] += 1;
            *last_period = predictor.period();
        }
    }

    /// Periods, `+1..+5` predictions and per-job scoring of `engine`
    /// against the bank.
    fn check(&self, engine: &EngineClient, at: &str) {
        let mut queries = Vec::new();
        let mut expected = Vec::new();
        for (key, (predictor, _)) in &self.streams {
            assert_eq!(
                engine.period_of(*key),
                predictor.period(),
                "{at}: period of {key:?}"
            );
            for h in 1..=5u32 {
                queries.push(Query::new(*key, h));
                expected.push(predictor.predict(h as usize));
            }
        }
        let mut got = Vec::new();
        engine.predict_batch(&queries, &mut got);
        assert_eq!(got, expected, "{at}: predictions");
        let jobs: BTreeMap<JobId, [u64; 5]> = engine
            .job_metrics()
            .into_iter()
            .map(|(job, m)| {
                (
                    job,
                    [
                        m.events_ingested,
                        m.hits,
                        m.misses,
                        m.abstentions,
                        m.period_churn,
                    ],
                )
            })
            .collect();
        assert_eq!(jobs, self.jobs, "{at}: per-job scoring");
    }
}

/// Streams that intern more than 256 distinct raw symbols partway
/// through, on 2 shards, cut by a snapshot → restore before any stream
/// widens, while some have and others have not, and after all have:
/// the engine still equals the raw per-stream reference throughout.
#[test]
fn streams_interning_past_a_byte_match_the_raw_reference_across_restores() {
    let cfg = EngineConfig {
        shards: 2,
        dpd: DpdConfig {
            window: 64,
            max_lag: 32,
            ..DpdConfig::default()
        },
        ttl: None,
        ..EngineConfig::default()
    };
    let keys: Vec<StreamKey> = (0..2)
        .flat_map(|job| {
            (0..3).flat_map(move |rank| StreamKind::ALL.map(|k| StreamKey::for_job(job, rank, k)))
        })
        .collect();
    let streams: Vec<Vec<u64>> = (0..keys.len() as u64).map(byte_crossing_stream).collect();
    let longest = streams.iter().map(Vec::len).max().expect("streams exist");
    let events: Vec<Observation> = (0..longest)
        .flat_map(|t| {
            keys.iter()
                .zip(&streams)
                .filter_map(move |(k, s)| Some(Observation::new(*k, *s.get(t)?)))
        })
        .collect();

    // Where each stream observes its 257th distinct symbol.
    let mut seen: HashMap<StreamKey, HashSet<u64>> = HashMap::new();
    let widened: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            let distinct = seen.entry(e.key).or_default();
            distinct.insert(e.value) && distinct.len() == 257
        })
        .map(|(at, _)| at)
        .collect();
    assert_eq!(widened.len(), keys.len(), "every stream crosses a byte");
    let (first, last) = (widened[0], widened[widened.len() - 1]);
    let cuts = [first, (first + last) / 2, last + 1, events.len()];

    let mut bank = ScoredBank::default();
    let mut engine = PersistentEngine::new(cfg.clone()).client();
    let mut from = 0;
    for (n, &cut) in cuts.iter().enumerate() {
        for chunk in events[from..cut].chunks(97) {
            engine.observe_batch(chunk);
        }
        for e in &events[from..cut] {
            bank.observe(e, &cfg.dpd);
        }
        bank.check(&engine, &format!("before restore {n}"));
        engine = PersistentEngine::restore(cfg.clone(), &engine.snapshot())
            .expect("a snapshot this engine just wrote must restore")
            .client();
        bank.check(&engine, &format!("after restore {n}"));
        from = cut;
    }
}
