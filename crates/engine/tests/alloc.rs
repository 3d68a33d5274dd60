//! Steady-state allocation audit: once slots, interners and scratch
//! buffers are warm, repeated batch ingest + forecast + sweep rounds on
//! a [`Shard`] — the single-threaded unit every engine worker drives —
//! must allocate **nothing**: the "cheap enough for the MPI critical
//! path" claim (§2.1) made checkable. The audit runs twice: with
//! telemetry disabled and with it enabled, because the telemetry
//! layer's zero-cost claim is precisely that recording into its fixed
//! atomic histogram buckets and pre-allocated flight ring adds clock
//! reads, never allocations.
//!
//! A counting global allocator tallies every `alloc`/`realloc`. The
//! binary contains exactly this one test, so no concurrent test thread
//! can pollute the counter. The persistent engine allocates one leg per
//! shard per batch, which its worker frees (`tests/client_heap.rs`
//! checks nothing is retained), and its query replies allocate per
//! call — that path is documented as re-plan-rate, not event-rate, in
//! the crate docs.

use mpp_core::dpd::DpdConfig;
use mpp_engine::{Observation, Shard, StreamKey, StreamKind, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// The bench-shaped workload: every rank carries periodic sender, size
/// and tag streams, interleaved round-robin.
fn batch(ranks: u32) -> Vec<Observation> {
    let mut out = Vec::new();
    for step in 0..8usize {
        for rank in 0..ranks {
            let sp = 2 + (rank as usize % 5);
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Sender),
                ((step + rank as usize) % sp) as u64,
            ));
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Size),
                [512u64, 4096, 1 << 20][(step + rank as usize) % 3],
            ));
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Tag),
                (step % 2) as u64,
            ));
        }
    }
    out
}

/// Idle-stream TTL of the audited shard: far above any stream's gap
/// (96 events) so nothing expires, but below a round's 768 events so
/// the throttled sweep (at most every `TTL / 2` events) runs in every
/// round.
const TTL: u64 = 1_000;

/// One round: ingest `events` as one leg stamped from `base + 1`, run
/// the throttled sweep, then forecast every rank.
fn round(
    shard: &mut Shard,
    events: &[Observation],
    base: &mut u64,
    forecast: &mut Vec<(Option<u64>, Option<u64>)>,
) {
    shard.observe_all_at(events, *base);
    *base += events.len() as u64;
    assert_eq!(
        shard.maybe_sweep(*base),
        0,
        "no stream is idle past the TTL"
    );
    for rank in 0..32 {
        shard.forecast_at(0, rank, 5, *base, forecast);
        assert_eq!(forecast.len(), 5);
    }
}

/// Runs the warmup + measured rounds on one shard configuration and
/// asserts the measured rounds allocated exactly zero times.
fn audit_steady_state(telemetry: bool) {
    let events = batch(32);
    let mut shard = Shard::with_ttl(DpdConfig::default(), Some(TTL));
    if telemetry {
        shard.enable_telemetry(&TelemetryConfig::enabled(), 0);
    }
    let mut forecast = Vec::new();
    let mut base = 0u64;

    // Warm-up: create slots, grow interners, size every scratch buffer.
    for _ in 0..3 {
        round(&mut shard, &events, &mut base, &mut forecast);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..5 {
        round(&mut shard, &events, &mut base, &mut forecast);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state observe_all_at + maybe_sweep + forecast_at must not allocate \
         (telemetry={telemetry})"
    );

    // Sanity: the shard really did the work.
    let total = shard.metrics();
    assert_eq!(total.events_ingested, 8 * events.len() as u64);
    assert_eq!(total.forecasts_served, 8 * 32);
    assert_eq!(total.evicted, 0);
    assert!(total.hits > 0);
    if telemetry {
        let snap = shard.telemetry_snapshot().expect("telemetry enabled");
        let h = snap.histogram("observe_batch_ns").expect("batch latency");
        assert_eq!(h.count(), 8, "every round's leg was timed");
        assert!(
            snap.histogram("forecast_ns")
                .expect("forecast latency")
                .count()
                >= 8 * 32,
            "every forecast call was timed"
        );
    }
}

#[test]
fn steady_state_observe_and_forecast_allocate_nothing() {
    // Sequential phases inside one test: the counting allocator is
    // global, so the two audits must never run concurrently.
    audit_steady_state(false);
    audit_steady_state(true);
}
