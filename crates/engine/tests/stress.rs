//! Persistent-engine stress: 16 shards × 64 ranks × 10k events driven
//! from 8 concurrent client threads, with a metrics monitor sampling
//! mid-flight. Pins the concurrency properties the persistent design
//! must keep:
//!
//! * no deadlock or leaked worker on drop (the test would hang);
//! * metrics are monotone and internally consistent at every sample;
//! * aggregate scoring (hits/misses/abstentions) is **exactly** equal
//!   to a single-shard sequential run — per-stream order is all that
//!   matters, so thread interleaving must not move a single counter.

use mpp_engine::{
    EngineConfig, EngineMetrics, Observation, PersistentEngine, StreamKey, StreamKind,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 16;
const RANKS: u32 = 64;
const THREADS: u32 = 8;
/// Events per rank. The full 10k ISSUE-scale load runs in release (CI
/// runs the suite in both profiles); debug keeps the same shape at a
/// quarter of the volume so `cargo test` stays snappy.
const EVENTS_PER_RANK: usize = if cfg!(debug_assertions) {
    2_500
} else {
    10_000
};
const BATCH: usize = 4096;

/// Deterministic per-stream workload: each rank rotates over its three
/// attribute streams with rank-dependent periodic values.
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
        assert!(y.period_churn >= x.period_churn, "shard {i} churn");
        assert!(y.evicted >= x.evicted, "shard {i} evicted");
        assert!(y.max_batch_depth >= x.max_batch_depth, "shard {i} depth");
        assert!(
            y.predictions_served >= x.predictions_served,
            "shard {i} served"
        );
        assert!(
            y.queue_high_water >= x.queue_high_water,
            "shard {i} high water"
        );
        assert!(y.send_blocked >= x.send_blocked, "shard {i} blocked");
        assert!(y.shed_events >= x.shed_events, "shard {i} shed");
    }
}

#[test]
fn concurrent_clients_match_single_shard_run_exactly() {
    let engine = PersistentEngine::new(EngineConfig::with_shards(SHARDS));
    let done = Arc::new(AtomicBool::new(false));

    // Monitor: samples metrics from its own client while ingest runs.
    let monitor = {
        let engine = engine.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let client = engine.client();
            let mut prev = client.metrics();
            let mut samples = 0u32;
            let sample = |prev: &mut mpp_engine::EngineMetrics, samples: &mut u32| {
                let cur = client.metrics();
                assert_monotone(prev, &cur);
                for (i, m) in cur.shards.iter().enumerate() {
                    assert_eq!(
                        m.hits + m.misses + m.abstentions,
                        m.events_ingested,
                        "shard {i}: every observation scores exactly once"
                    );
                }
                *samples += 1;
                *prev = cur;
            };
            // One unconditional sample up front, then sample while the
            // writers run (scheduling-dependent how often), then one
            // final sample after they finish: monotonicity is always
            // checked across at least two snapshots, with no dependence
            // on how the OS schedules this thread.
            sample(&mut prev, &mut samples);
            loop {
                let finished = done.load(Ordering::Relaxed);
                sample(&mut prev, &mut samples);
                if finished {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (prev, samples)
        })
    };

    // 8 writer threads, each owning 8 ranks end-to-end.
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let client = engine.client();
                let ranks: Vec<u32> = (0..RANKS).filter(|r| r % THREADS == t).collect();
                let mut batch = Vec::with_capacity(BATCH);
                for step in 0..EVENTS_PER_RANK {
                    for &r in &ranks {
                        batch.push(event_of(r, step));
                        if batch.len() == BATCH {
                            client.observe_batch(&batch);
                            batch.clear();
                        }
                    }
                }
                client.observe_batch(&batch);
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }
    done.store(true, Ordering::Relaxed);
    let (_, samples) = monitor.join().expect("monitor thread");
    assert!(samples >= 2, "monitor checked at least two snapshots");

    let total_events = (RANKS as usize * EVENTS_PER_RANK) as u64;
    let inspector = engine.client();
    let multi = inspector.metrics_total();
    assert_eq!(multi.events_ingested, total_events);
    assert_eq!(multi.resident_streams, u64::from(RANKS) * 3);
    assert_eq!(multi.evicted, 0, "no TTL configured");
    assert!(multi.max_batch_depth > 0);

    // Sequential single-shard reference: same per-stream order, so the
    // scored counters must agree to the last event.
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
    assert_eq!(multi.events_ingested, solo.events_ingested);
    assert_eq!(multi.hits, solo.hits, "hit counts must match exactly");
    assert_eq!(multi.misses, solo.misses);
    assert_eq!(multi.abstentions, solo.abstentions);
    assert_eq!(multi.period_churn, solo.period_churn);
    assert_eq!(multi.resident_streams, solo.resident_streams);
    let rate = multi.hit_rate().expect("scored events exist");
    assert!(rate > 0.9, "periodic workload should mostly hit: {rate}");

    // Graceful shutdown: dropping every handle joins 16 workers. A
    // deadlock would hang the test; a slow teardown is also a bug.
    drop(inspector);
    let start = Instant::now();
    drop(engine);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drop took {:?}",
        start.elapsed()
    );
}

#[test]
fn drop_mid_traffic_does_not_deadlock() {
    // Teardown lands on whichever thread drops the last handle: main
    // drops its clone immediately, so the final writer to finish joins
    // all 16 workers from inside its own thread, concurrently with the
    // other writers' clones dying. (A client can never outlive the
    // workers — every client keeps the engine alive by construction —
    // so this pins clean last-drop-from-any-thread shutdown, repeated
    // to give scheduling a chance to vary.)
    for _ in 0..10 {
        let engine = PersistentEngine::new(EngineConfig::with_shards(SHARDS));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    let client = engine.client();
                    for step in 0..200 {
                        let obs: Vec<Observation> =
                            (0..32).map(|r| event_of(r * 4 + t, step)).collect();
                        client.observe_batch(&obs);
                    }
                    client.metrics_total().events_ingested
                })
            })
            .collect();
        drop(engine);
        for w in writers {
            let ingested = w.join().expect("writer survived teardown race");
            assert!(ingested > 0);
        }
    }
}
