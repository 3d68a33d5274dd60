//! Live-heap audit of the persistent engine's observe path: a client
//! allocates each batch leg once and the worker that applies it frees
//! it, so once every shard has answered a query the heap is back where
//! it was before the batches, whatever their sizes. Nothing on the
//! path keeps a buffer sized by past traffic.
//!
//! A counting global allocator tracks live bytes (allocated minus
//! freed) across every thread, the shard workers included. The binary
//! contains exactly this one test, so no concurrent test thread can
//! move the count.

use mpp_engine::{EngineConfig, Observation, PersistentEngine, StreamKey, StreamKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

const RANKS: u32 = 16;

/// `n` events over every rank's sender and size streams, with values
/// from a four-symbol alphabet: after one round every stream and
/// symbol is known, so ingest itself allocates nothing.
fn batch(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let rank = i as u32 % RANKS;
            let kind = StreamKind::ALL[(i / RANKS as usize) % 2];
            Observation::new(StreamKey::new(rank, kind), (i / 3 % 4) as u64)
        })
        .collect()
}

/// Small batches of uneven sizes, so the legs' sizes vary.
const SMALL: [usize; 8] = [96, 200, 64, 513, 128, 77, 300, 160];

/// Events in the burst: over 65 536 in all, split over both shards,
/// so each shard's leg is far larger than any small batch's.
const BURST: usize = 70_000;

#[test]
fn observe_legs_leave_the_live_heap_where_it_started() {
    let eng = PersistentEngine::new(EngineConfig::with_shards(2));
    let client = eng.client();
    let small: Vec<Vec<Observation>> = SMALL.iter().map(|&n| batch(n)).collect();

    // Warm-up: the small batches twice over, with both workers
    // throttled so each lane queues all 16 legs. The channels' buffers
    // then hold more commands than the measured round can queue (8
    // legs, the burst's and the barrier query). The warm-up also
    // creates every stream and interns every symbol.
    for shard in 0..2 {
        eng.debug_throttle_worker(shard, Duration::from_millis(1));
    }
    for b in small.iter().chain(&small) {
        client.observe_batch(b);
    }
    for shard in 0..2 {
        eng.debug_throttle_worker(shard, Duration::ZERO);
    }
    let warm = client.metrics_total();
    assert_eq!(warm.resident_streams, 2 * u64::from(RANKS));

    let before = LIVE.load(Ordering::Relaxed);
    for b in &small {
        client.observe_batch(b);
    }
    client.observe_batch(&batch(BURST));
    // Barrier: each shard answers only after applying, and freeing,
    // every leg sent to it before the query.
    let total = client.metrics_total();
    let after = LIVE.load(Ordering::Relaxed);

    let sent: usize = 3 * SMALL.iter().sum::<usize>() + BURST;
    assert_eq!(total.events_ingested, sent as u64);
    assert_eq!(total.resident_streams, warm.resident_streams);
    assert_eq!(
        after - before,
        0,
        "a round of batches changed the live heap by {} bytes",
        after - before
    );
}
