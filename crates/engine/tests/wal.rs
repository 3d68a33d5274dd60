//! Crash-recovery fault injection for the durable observation log.
//!
//! The durability contract under test: a durable engine killed at *any*
//! byte of its log — torn frame, half-written header, vanished tail —
//! recovers to a state from which replaying the missing events lands
//! bit-identical to a run that never crashed. Corruption is never a
//! panic and never partially applied: a torn tail truncates (flagged in
//! the report and, with telemetry, as a `wal_truncated` flight event),
//! a corrupt snapshot falls back to the previous one, and retention
//! never deletes state recovery could still need.

use mpp_engine::{
    DurabilityConfig, EngineClient, EngineConfig, FederatedEngine, FederationConfig, FlightKind,
    Observation, PersistentEngine, StreamKey, StreamKind, TelemetryConfig,
};
use proptest::prelude::*;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const RANKS: u32 = 4;
const BATCH: usize = 64;

/// Fresh per-test scratch directory (removed up front so a crashed
/// previous run cannot leak state in).
fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpp-wal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Deterministic, predictable workload: every rank cycles a short
/// pattern on each stream kind, so recovery errors show up as hit-rate
/// and prediction differences, not just event counts.
fn workload(n: usize) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let rank = (i as u32) % RANKS;
            let kind = StreamKind::ALL[(i / RANKS as usize) % 3];
            let step = i / (RANKS as usize * 3);
            let period = 2 + (rank as usize % 3);
            Observation::new(StreamKey::new(rank, kind), (step % period) as u64)
        })
        .collect()
}

/// Everything deterministic about an engine's state: scoring counters
/// plus live predictions across every stream and horizon. (Raw snapshot
/// bytes also carry timing-dependent queue stats, so they are not a
/// stable fingerprint.)
fn fingerprint(client: &EngineClient) -> (Vec<u64>, Vec<Option<u64>>) {
    let t = client.metrics_total();
    let counters = vec![
        t.events_ingested,
        t.hits,
        t.misses,
        t.abstentions,
        t.period_churn,
        t.evicted,
        t.resident_streams,
    ];
    let mut preds = Vec::new();
    for rank in 0..RANKS {
        for kind in StreamKind::ALL {
            for horizon in 1..=3 {
                preds.push(client.predict(StreamKey::new(rank, kind), horizon));
            }
        }
    }
    (counters, preds)
}

/// The uninterrupted reference: the same events through a log-free
/// engine in the same batches.
fn reference(events: &[Observation], shards: usize) -> (Vec<u64>, Vec<Option<u64>>) {
    let engine = PersistentEngine::new(EngineConfig::with_shards(shards));
    let client = engine.client();
    for chunk in events.chunks(BATCH) {
        client.observe_batch(chunk);
    }
    fingerprint(&client)
}

/// Runs `events` through a durable engine with a checkpoint at the
/// midpoint batch boundary, then drops it (joining the log writer), so
/// the directory holds a snapshot anchor plus a live log tail.
fn durable_run(events: &[Observation], cfg: EngineConfig) {
    let mid = events.len() / 2;
    let engine = PersistentEngine::new(cfg);
    let client = engine.client();
    let mut submitted = 0usize;
    for chunk in events.chunks(BATCH) {
        client.observe_batch(chunk);
        submitted += chunk.len();
        if submitted.saturating_sub(chunk.len()) < mid && submitted >= mid {
            client.checkpoint().expect("checkpoint");
        }
    }
    engine.sync_wal();
}

/// Segment files under `dir`, ascending by start stamp (filename order).
fn segments(dir: &Path) -> Vec<PathBuf> {
    named(dir, "wal-", ".seg")
}

/// Snapshot files under `dir`, ascending by watermark (filename order).
fn snapshots(dir: &Path) -> Vec<PathBuf> {
    named(dir, "snap-", ".snap")
}

fn named(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("durability dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
        })
        .collect();
    out.sort();
    out
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: kill the durable engine at *any* byte
    /// of its newest segment (a crash leaves an arbitrary prefix of the
    /// tail on disk), recover, replay the events the recovered state
    /// had not yet ingested — and land bit-identical to an
    /// uninterrupted run. `frac` sweeps the cut across the whole file,
    /// including inside the segment header and exactly at the end (a
    /// clean log).
    #[test]
    fn kill_at_any_byte_recovers_and_converges(
        frac in 0u64..10_001,
        shards in 1usize..4,
    ) {
        let events = workload(1800);
        let dir = tmp(&format!("kill-{}", CASE.fetch_add(1, Ordering::SeqCst)));
        // Small segments force rotation, so the cut can land in a
        // fresh segment, a retained one, or the header of either.
        let durability = DurabilityConfig::new(&dir).with_segment_bytes(8 * 1024);
        durable_run(
            &events,
            EngineConfig::with_shards(shards).with_durability(durability.clone()),
        );

        let torn = segments(&dir).pop().expect("at least one segment");
        let len = fs::metadata(&torn).expect("segment metadata").len();
        let cut = len * frac / 10_000;
        OpenOptions::new()
            .write(true)
            .open(&torn)
            .expect("open segment")
            .set_len(cut)
            .expect("truncate segment");

        let (engine, report) =
            PersistentEngine::recover(EngineConfig::with_shards(shards).with_durability(durability))
                .expect("recovery never fails on a truncated tail");
        let client = engine.client();
        let skip = report.events() as usize;
        prop_assert!(skip <= events.len(), "clock never runs ahead of the trace");
        prop_assert_eq!(
            skip.is_multiple_of(BATCH) || skip == events.len(),
            true,
            "frames are whole batches, so the clock lands on a batch boundary"
        );
        prop_assert_eq!(client.metrics_total().events_ingested, report.events());
        for chunk in events[skip..].chunks(BATCH) {
            client.observe_batch(chunk);
        }
        prop_assert_eq!(fingerprint(&client), reference(&events, shards));
        drop(client);
        drop(engine);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A torn frame appended by a crash mid-write is truncated back to the
/// last valid frame — reported, flagged as a `wal_truncated` flight
/// event, and physically removed so the next append continues cleanly.
#[test]
fn torn_tail_is_truncated_and_flagged() {
    let events = workload(600);
    let dir = tmp("torn");
    let cfg = || {
        EngineConfig::with_shards(2)
            .with_durability(DurabilityConfig::new(&dir))
            .with_telemetry(TelemetryConfig::enabled())
    };
    durable_run(&events, cfg());

    let torn = segments(&dir).pop().expect("segment");
    let clean_len = fs::metadata(&torn).expect("metadata").len();
    // A frame prefix promising more bytes than the file holds: the
    // classic half-flushed append.
    let mut f = OpenOptions::new().append(true).open(&torn).expect("open");
    f.write_all(&[0x40, 0, 0, 0, 0xde, 0xad, 0xbe])
        .expect("tear");
    drop(f);

    let (engine, report) = PersistentEngine::recover(cfg()).expect("recover");
    assert!(report.wal_truncated, "the tear must be reported");
    assert_eq!(report.events(), events.len() as u64, "no valid frame lost");
    assert_eq!(report.snapshots_skipped, 0);
    assert_eq!(
        fs::metadata(&torn).expect("metadata").len(),
        clean_len,
        "repair truncates the file back to its valid prefix"
    );
    let flight = engine
        .client()
        .telemetry()
        .expect("telemetry enabled")
        .flight()
        .to_vec();
    assert!(
        flight.iter().any(|e| e.kind == FlightKind::WalTruncated),
        "recovery records the truncation in the flight recorder"
    );
    // The recovered engine keeps appending to the repaired log.
    let client = engine.client();
    client.observe_batch(&workload(620)[600..]);
    assert_eq!(
        client.metrics_total().events_ingested,
        620,
        "ingest continues past recovery"
    );
    drop(client);
    drop(engine);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A segment cut inside its 11-byte header carries no readable frames:
/// repair drops the file entirely and recovery proceeds from whatever
/// the snapshot and earlier segments cover — here, nothing, so the
/// engine restarts empty rather than panicking or half-applying.
#[test]
fn segment_truncated_inside_the_header_restarts_empty() {
    let events = workload(300);
    let dir = tmp("header");
    let cfg = || EngineConfig::with_shards(2).with_durability(DurabilityConfig::new(&dir));
    // No checkpoint: the log is the only persistent state.
    let engine = PersistentEngine::new(cfg());
    let client = engine.client();
    for chunk in events.chunks(BATCH) {
        client.observe_batch(chunk);
    }
    engine.sync_wal();
    drop(client);
    drop(engine);

    let seg = segments(&dir).pop().expect("segment");
    OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open")
        .set_len(3)
        .expect("truncate into header");

    let (engine, report) = PersistentEngine::recover(cfg()).expect("recover");
    assert!(report.wal_truncated);
    assert_eq!(report.events(), 0, "nothing valid survived the cut");
    // Replaying the whole trace lands on the reference state.
    let client = engine.client();
    for chunk in events.chunks(BATCH) {
        client.observe_batch(chunk);
    }
    assert_eq!(fingerprint(&client), reference(&events, 2));
    drop(client);
    drop(engine);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// A corrupt newest snapshot is skipped in favour of the previous one
/// (retention always keeps two), at the cost of a longer log replay —
/// never an error, never a partial restore.
#[test]
fn corrupt_snapshot_falls_back_to_the_previous_one() {
    let events = workload(1800);
    let dir = tmp("snapfall");
    // Default (large) segments: the whole log stays in one file, so
    // falling back past the newest watermark still has full coverage.
    let cfg = || EngineConfig::with_shards(2).with_durability(DurabilityConfig::new(&dir));
    let engine = PersistentEngine::new(cfg());
    let client = engine.client();
    let mut watermarks = Vec::new();
    for (i, chunk) in events.chunks(BATCH).enumerate() {
        client.observe_batch(chunk);
        if i == 8 || i == 18 {
            watermarks.push(
                client
                    .checkpoint()
                    .expect("checkpoint")
                    .expect("durability configured"),
            );
        }
    }
    engine.sync_wal();
    drop(client);
    drop(engine);

    let snaps = snapshots(&dir);
    assert_eq!(snaps.len(), 2, "retention keeps the newest two snapshots");
    let newest = snaps.last().expect("newest snapshot");
    let mut bytes = fs::read(newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(newest, &bytes).expect("corrupt snapshot");

    let (engine, report) = PersistentEngine::recover(cfg()).expect("recover");
    assert_eq!(report.snapshots_skipped, 1, "the corrupt newest is skipped");
    assert_eq!(
        report.snapshot_events, watermarks[0],
        "recovery anchors on the previous snapshot"
    );
    assert_eq!(
        report.events(),
        events.len() as u64,
        "the log replays everything past the older anchor"
    );
    assert!(!report.wal_truncated, "the log itself is clean");
    let client = engine.client();
    assert_eq!(fingerprint(&client), reference(&events, 2));
    drop(client);
    drop(engine);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Retention after repeated checkpoints: all but the two newest
/// snapshots go, segments fully covered by the newest snapshot go —
/// and what remains still recovers the complete state.
#[test]
fn retention_prunes_stale_artifacts_without_losing_state() {
    let events = workload(2400);
    let dir = tmp("retain");
    let cfg = || {
        EngineConfig::with_shards(2)
            .with_durability(DurabilityConfig::new(&dir).with_segment_bytes(4 * 1024))
    };
    let engine = PersistentEngine::new(cfg());
    let client = engine.client();
    for (i, chunk) in events.chunks(BATCH).enumerate() {
        client.observe_batch(chunk);
        if i % 8 == 7 {
            client.checkpoint().expect("checkpoint");
        }
    }
    engine.sync_wal();
    drop(client);
    drop(engine);

    assert_eq!(
        snapshots(&dir).len(),
        2,
        "only the newest snapshot and its fallback remain"
    );
    // 2400 events in ~1.1 KiB frames across 4 KiB segments rotate many
    // times; retention must have pruned the fully-covered ones.
    let remaining = segments(&dir).len();
    assert!(
        remaining < 10,
        "covered segments were pruned ({remaining} left)"
    );

    let (engine, report) = PersistentEngine::recover(cfg()).expect("recover");
    assert_eq!(report.events(), events.len() as u64);
    assert_eq!(fingerprint(&engine.client()), reference(&events, 2));
    drop(engine);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Federated recovery: per-member logs rebuild every member, and the
/// persisted pin table restores routing — a job migrated before the
/// crash is still served by its new member afterwards, with its
/// scoring rollup intact.
#[test]
fn federated_recovery_preserves_pins_and_member_state() {
    let dir = tmp("fed");
    let cfg = || {
        FederationConfig::new(2, 2).member_config(
            EngineConfig::with_shards(2).with_durability(DurabilityConfig::new(&dir)),
        )
    };
    let jobs = 3u32;
    let events: Vec<Observation> = workload(900)
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            Observation::new(
                StreamKey::for_job((i as u32) % jobs, o.key.rank, o.key.kind),
                o.value,
            )
        })
        .collect();

    let fed = FederatedEngine::new(cfg());
    let fc = fed.client();
    for chunk in events[..600].chunks(BATCH) {
        fc.observe_batch(chunk);
    }
    // Move job 1 to the other member; the durable migration checkpoints
    // both sides and persists the pin.
    let from = fed.member_of(1);
    let to = 1 - from;
    fed.migrate_job(1, from, to).expect("migrate");
    for chunk in events[600..].chunks(BATCH) {
        fc.observe_batch(chunk);
    }
    let before_jobs = fc.job_metrics();
    let key = StreamKey::for_job(1, 0, StreamKind::Sender);
    let before_pred = fc.predict(key, 1);
    drop(fc);
    drop(fed);

    let (fed, report) = FederatedEngine::recover(cfg()).expect("recover");
    assert_eq!(report.members.len(), 2);
    assert_eq!(report.pins_restored, 1, "the migration pin came back");
    assert_eq!(fed.member_of(1), to, "the pinned route survives the crash");
    assert_eq!(
        report.events(),
        events.len() as u64,
        "both members recovered their full streams"
    );
    let fc = fed.client();
    assert_eq!(fc.job_metrics(), before_jobs);
    assert_eq!(fc.predict(key, 1), before_pred);
    drop(fc);
    // The recovered federation keeps serving and migrating.
    fed.migrate_job(1, to, from).expect("migrate back");
    assert_eq!(fed.member_of(1), from);
    drop(fed);
    fs::remove_dir_all(&dir).expect("cleanup");
}
