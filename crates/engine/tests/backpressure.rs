//! Bounded observe lanes under pressure: the backpressure subsystem's
//! load-bearing properties.
//!
//! * **`Block` is semantics-free.** A bounded engine in `Block` mode is
//!   bit-identical to the unbounded engine and to an unbounded one-shard
//!   engine, for any shard count, batch split and queue capacity —
//!   bounding the lanes is purely a memory/pressure device (proptest
//!   below).
//! * **A slow shard cannot deadlock or corrupt.** With a tiny
//!   `observe_queue_cap` and one artificially stalled shard, concurrent
//!   writers finish (blocking, not deadlocking), metrics stay monotone,
//!   the lane never exceeds its cap, and hit/miss/abstention counters
//!   match a sequential single-shard run *exactly*.
//! * **`Shed` accounting is exact.** Every submitted event is counted
//!   exactly once as ingested or shed, and the per-call
//!   [`ObserveOutcome`]s sum to the per-shard `shed_events` metric.
//! * **Dead workers fail loudly.** A killed shard worker surfaces
//!   [`WorkerGone`] on submission and a prompt panic (never a hang) on
//!   the query/reply path.

use mpp_core::dpd::DpdConfig;
use mpp_engine::{
    BackpressurePolicy, EngineConfig, EngineMetrics, Observation, ObserveOutcome, PersistentEngine,
    Query, StreamKey, StreamKind, WorkerGone,
};
use proptest::prelude::*;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

const RANKS: u32 = 16;
const THREADS: u32 = 4;
const EVENTS_PER_RANK: usize = 300;
const BATCH: usize = 64;

fn skey(rank: u32) -> StreamKey {
    StreamKey::new(rank, StreamKind::Sender)
}

/// Deterministic per-stream workload (same shape as `stress.rs`).
fn event_of(rank: u32, step: usize) -> Observation {
    let kind = StreamKind::ALL[step % 3];
    let value = match kind {
        StreamKind::Sender => ((step / 3 + rank as usize) % (2 + rank as usize % 5)) as u64,
        StreamKind::Size => [512u64, 4096, 1 << 20][(step / 3 + rank as usize) % 3],
        StreamKind::Tag => (step / 3 % 2) as u64,
    };
    Observation::new(StreamKey::new(rank, kind), value)
}

/// Every counter of `b` is at least `a`'s (per shard, per field).
fn assert_monotone(a: &EngineMetrics, b: &EngineMetrics) {
    for (i, (x, y)) in a.shards.iter().zip(&b.shards).enumerate() {
        assert!(y.events_ingested >= x.events_ingested, "shard {i} ingested");
        assert!(y.hits >= x.hits, "shard {i} hits");
        assert!(y.misses >= x.misses, "shard {i} misses");
        assert!(y.abstentions >= x.abstentions, "shard {i} abstentions");
        assert!(
            y.queue_high_water >= x.queue_high_water,
            "shard {i} high water"
        );
        assert!(y.send_blocked >= x.send_blocked, "shard {i} blocked");
        assert!(y.shed_events >= x.shed_events, "shard {i} shed");
    }
}

/// Tiny cap + one stalled shard + concurrent writers: `Block` mode must
/// finish without deadlock, keep the lane within its cap, and keep the
/// scored counters exactly equal to a sequential single-shard run.
#[test]
fn slow_shard_with_tiny_cap_blocks_without_deadlock_and_keeps_exact_parity() {
    const CAP: usize = 2;
    let engine = PersistentEngine::new(
        EngineConfig::with_shards(4).with_queue_cap(CAP), // Block is the default policy
    );
    let slow_shard = engine.shard_for(0);
    engine.debug_throttle_worker(slow_shard, Duration::from_millis(1));

    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let client = engine.client();
                let ranks: Vec<u32> = (0..RANKS).filter(|r| r % THREADS == t).collect();
                let mut batch = Vec::with_capacity(BATCH);
                let mut outcome = ObserveOutcome::default();
                let push = |o: ObserveOutcome, acc: &mut ObserveOutcome| {
                    acc.enqueued += o.enqueued;
                    acc.shed += o.shed;
                };
                for step in 0..EVENTS_PER_RANK {
                    for &r in &ranks {
                        batch.push(event_of(r, step));
                        if batch.len() == BATCH {
                            push(client.observe_batch(&batch), &mut outcome);
                            batch.clear();
                        }
                    }
                }
                push(client.observe_batch(&batch), &mut outcome);
                outcome
            })
        })
        .collect();

    // Sample metrics mid-flight from a separate client: monotone, and
    // the lane can never exceed its cap.
    let sampler = engine.client();
    let mut prev = sampler.metrics();
    for _ in 0..5 {
        let cur = sampler.metrics();
        assert_monotone(&prev, &cur);
        for (i, m) in cur.shards.iter().enumerate() {
            assert!(
                m.queue_high_water <= CAP as u64,
                "shard {i} high water {} exceeds cap {CAP}",
                m.queue_high_water
            );
        }
        prev = cur;
    }

    let total_submitted: u64 = writers
        .into_iter()
        .map(|w| {
            let o = w.join().expect("writer finished (no deadlock)");
            assert_eq!(o.shed, 0, "Block mode never sheds");
            o.enqueued
        })
        .sum();
    assert_eq!(total_submitted, u64::from(RANKS) * EVENTS_PER_RANK as u64);

    engine.debug_throttle_worker(slow_shard, Duration::ZERO);
    let multi = engine.client().metrics_total();
    assert_eq!(multi.events_ingested, total_submitted, "nothing lost");
    assert_eq!(multi.shed_events, 0);
    assert!(
        multi.send_blocked > 0,
        "a 1 ms/command shard behind a cap-{CAP} lane must have blocked writers"
    );
    assert!(multi.queue_high_water >= 1 && multi.queue_high_water <= CAP as u64);

    // Exact scoring parity with a sequential single-shard reference.
    let reference = PersistentEngine::new(EngineConfig::with_shards(1)).client();
    let mut batch = Vec::with_capacity(BATCH);
    for r in 0..RANKS {
        for step in 0..EVENTS_PER_RANK {
            batch.push(event_of(r, step));
            if batch.len() == BATCH {
                reference.observe_batch(&batch);
                batch.clear();
            }
        }
    }
    reference.observe_batch(&batch);
    let solo = reference.metrics_total();
    assert_eq!(multi.hits, solo.hits, "hit counts must match exactly");
    assert_eq!(multi.misses, solo.misses);
    assert_eq!(multi.abstentions, solo.abstentions);
    assert_eq!(multi.period_churn, solo.period_churn);
    assert_eq!(multi.resident_streams, solo.resident_streams);
}

/// `Shed` mode under sustained overload: every event is accounted for
/// exactly once, per-call outcomes agree with the metrics, and the
/// engine stays serviceable afterwards.
#[test]
fn shed_mode_accounting_is_exact_under_overload() {
    let engine = PersistentEngine::new(
        EngineConfig::with_shards(2)
            .with_queue_cap(1)
            .with_backpressure(BackpressurePolicy::Shed),
    );
    for s in 0..2 {
        engine.debug_throttle_worker(s, Duration::from_millis(5));
    }
    let client = engine.client();
    // Barrier: queries block rather than shed, so once this returns the
    // throttles are active and both lanes are empty — the first leg per
    // shard is then guaranteed to enqueue, everything behind it races a
    // 5 ms/command worker.
    client.metrics_total();
    let mut enqueued = 0u64;
    let mut shed = 0u64;
    const BATCHES: u64 = 30;
    const PER_BATCH: u64 = 20;
    for b in 0..BATCHES {
        let batch: Vec<Observation> = (0..PER_BATCH)
            .map(|i| Observation::new(skey((b + i) as u32 % 8), i % 3))
            .collect();
        let o = client.observe_batch(&batch);
        enqueued += o.enqueued;
        shed += o.shed;
    }
    assert_eq!(enqueued + shed, BATCHES * PER_BATCH, "counted exactly once");
    assert!(
        shed > 0,
        "5 ms/command workers behind cap-1 lanes must shed"
    );
    assert!(enqueued > 0, "some legs land in the gaps");

    for s in 0..2 {
        engine.debug_throttle_worker(s, Duration::ZERO);
    }
    let total = client.metrics_total();
    assert_eq!(total.shed_events, shed, "metric equals summed outcomes");
    assert_eq!(
        total.events_ingested, enqueued,
        "only enqueued events ingest"
    );
    // The engine still serves after shedding: a fresh periodic stream
    // trains and predicts normally once pressure is gone. The metrics
    // barrier after each batch keeps the cap-1 lane drained, so none of
    // the training legs race the worker and shed.
    for _ in 0..20 {
        let o = client.observe_batch(&[
            Observation::new(skey(100), 1),
            Observation::new(skey(100), 2),
        ]);
        assert!(o.complete(), "drained lane must accept the leg");
        client.metrics_total();
    }
    assert_eq!(client.period_of(skey(100)), Some(2));
}

/// A killed shard worker must surface clearly — `WorkerGone` on the
/// submission path, a prompt panic (never a hang) on both query paths:
/// the closed-lane send and the orphaned-reply wait.
#[test]
fn dead_worker_fails_loudly_on_every_path_instead_of_hanging() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // expected panics stay quiet

    // Path 1: lane already closed — submission errors, query panics.
    let engine = PersistentEngine::new(EngineConfig::with_shards(3).with_queue_cap(4));
    let client = engine.client();
    client.observe_batch(&[Observation::new(skey(0), 1)]);
    let dead = engine.shard_for(0);
    engine.debug_kill_worker(dead, true);
    assert_eq!(
        client.try_observe_batch(&[Observation::new(skey(0), 2)]),
        Err(WorkerGone { shard: dead })
    );
    let started = Instant::now();
    let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| client.predict(skey(0), 1)))
        .expect_err("query to a dead shard must panic, not hang");
    let msg = panicked
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("gone"), "unclear dead-worker panic: {msg:?}");
    assert!(started.elapsed() < Duration::from_secs(5), "prompt failure");

    // Path 2: query orphaned mid-flight — the worker dies with the
    // query still queued behind the kill, so the client is waiting on
    // the reply lane and must detect the death, not wait forever.
    let engine2 = PersistentEngine::new(EngineConfig::with_shards(1));
    let client2 = engine2.client();
    client2.observe_batch(&[Observation::new(skey(0), 1)]);
    engine2.debug_throttle_worker(0, Duration::from_millis(100));
    engine2.debug_kill_worker(0, false); // Exit queued; worker still asleep
    let started = Instant::now();
    let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| client2.predict(skey(0), 1)))
        .expect_err("orphaned query must panic, not hang");
    let msg = panicked
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panicked.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert_eq!(
        msg,
        WorkerGone { shard: 0 }.to_string(),
        "an orphaned query names its shard"
    );
    assert!(started.elapsed() < Duration::from_secs(5), "prompt failure");

    std::panic::set_hook(prev_hook);
}

const P_RANKS: u32 = 6;
const P_HORIZONS: u32 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: for any shard count, batch split, queue
    /// capacity and TTL setting, `Block`-mode bounded ingestion is
    /// bit-identical to the unbounded engine and to an unbounded
    /// one-shard engine — mid-sequence and at the end, for every stream
    /// and horizon, including the scored metrics.
    #[test]
    fn bounded_block_ingestion_is_bit_identical_to_unbounded(
        raw_batches in prop::collection::vec((0u32..6, 0u8..3, 0u64..5, 1u8..24), 1..30),
        shards in 1usize..5,
        cap in 1usize..5,
        ttl_sel in 0u64..45,
    ) {
        let ttl = if ttl_sel < 15 { None } else { Some(ttl_sel) };
        let dpd = DpdConfig { window: 48, max_lag: 16, ..DpdConfig::default() };
        let base = EngineConfig {
            shards,
            dpd,
            ttl,
            ..EngineConfig::default()
        };
        let bounded_eng = PersistentEngine::new(base.clone().with_queue_cap(cap));
        // Stall one shard slightly so small caps genuinely fill and the
        // blocking path runs, not just the try_send fast path.
        bounded_eng.debug_throttle_worker(0, Duration::from_micros(300));
        let bounded = bounded_eng.client();
        let unbounded_eng = PersistentEngine::new(base.clone());
        let unbounded = unbounded_eng.client();
        let solo = PersistentEngine::new(EngineConfig { shards: 1, ..base }).client();

        for (r, k, v, len) in raw_batches {
            let batch: Vec<Observation> = (0..u64::from(len))
                .map(|j| {
                    let rank = (r + j as u32) % P_RANKS;
                    let kind = StreamKind::ALL[((u32::from(k) + rank) % 3) as usize];
                    Observation::new(StreamKey::new(rank, kind), (v + j) % 4)
                })
                .collect();
            let outcome = bounded.observe_batch(&batch);
            prop_assert_eq!(outcome.shed, 0, "Block mode must never shed");
            prop_assert_eq!(outcome.enqueued, batch.len() as u64);
            unbounded.observe_batch(&batch);
            solo.observe_batch(&batch);
            // Mid-sequence spot check on the batch's first stream.
            if let Some(first) = batch.first() {
                for h in 1..=P_HORIZONS {
                    let want = solo.predict(first.key, h);
                    prop_assert_eq!(bounded.predict(first.key, h), want,
                        "bounded diverged mid-sequence on {:?} +{}", first.key, h);
                    prop_assert_eq!(unbounded.predict(first.key, h), want,
                        "unbounded diverged mid-sequence on {:?} +{}", first.key, h);
                }
            }
        }

        // Final exhaustive comparison over every possible stream.
        let mut queries = Vec::new();
        for rank in 0..P_RANKS {
            for kind in StreamKind::ALL {
                for h in 1..=P_HORIZONS {
                    queries.push(Query::new(StreamKey::new(rank, kind), h));
                }
            }
        }
        let mut want = Vec::new();
        solo.predict_batch(&queries, &mut want);
        let mut got = Vec::new();
        bounded.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "bounded final state diverged");
        unbounded.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "unbounded final state diverged");

        let (bm, um, sm) = (
            bounded.metrics_total(),
            unbounded.metrics_total(),
            solo.metrics_total(),
        );
        prop_assert_eq!(bm.events_ingested, sm.events_ingested);
        prop_assert_eq!(bm.hits, sm.hits, "bounded scoring diverged");
        prop_assert_eq!(bm.misses, sm.misses);
        prop_assert_eq!(bm.abstentions, sm.abstentions);
        prop_assert_eq!(um.hits, sm.hits, "unbounded scoring diverged");
        prop_assert_eq!(bm.shed_events, 0);
        prop_assert!(bm.queue_high_water <= cap as u64, "lane exceeded its cap");
    }
}
