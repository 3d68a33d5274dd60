//! Telemetry integration: snapshot counters cross-check against
//! `ShardMetrics`, shard→engine→federation merges equal single-recorder
//! histograms, the flight recorder attributes evictions / backpressure /
//! worker deaths exactly, and disabled telemetry surfaces as `None`
//! everywhere.

use mpp_core::dpd::DpdConfig;
use mpp_engine::{
    BackpressurePolicy, EngineConfig, FederatedEngine, FederationConfig, FlightKind, Observation,
    PersistentEngine, Shard, StreamKey, StreamKind, TelemetryConfig, TelemetrySnapshot,
};
use std::time::Duration;

fn skey(rank: u32) -> StreamKey {
    StreamKey::new(rank, StreamKind::Sender)
}

fn jkey(job: u32, rank: u32) -> StreamKey {
    StreamKey::for_job(job, rank, StreamKind::Sender)
}

fn telemetry_cfg(shards: usize) -> EngineConfig {
    EngineConfig::with_shards(shards).with_telemetry(TelemetryConfig::enabled())
}

/// A batch cycling `ranks` through per-rank periodic patterns.
fn pattern_batch(ranks: u32, events_per_rank: usize) -> Vec<Observation> {
    let mut batch = Vec::new();
    for i in 0..events_per_rank {
        for r in 0..ranks {
            let period = (r as usize % 3) + 2;
            batch.push(Observation::new(skey(r), (i % period) as u64));
        }
    }
    batch
}

fn assert_quantiles_monotone(snap: &TelemetrySnapshot, name: &str) {
    let h = snap
        .histogram(name)
        .unwrap_or_else(|| panic!("histogram {name} present"));
    assert!(h.count() > 0, "{name} recorded samples");
    let p50 = h.quantile(0.5);
    let p90 = h.quantile(0.9);
    let p99 = h.quantile(0.99);
    assert!(p50 <= p90 && p90 <= p99, "{name}: p50≤p90≤p99");
    assert!(p99 <= h.max().max(1), "{name}: p99 bounded by max bucket");
}

#[test]
fn snapshot_counters_match_shard_metrics_exactly() {
    let eng = PersistentEngine::new(telemetry_cfg(3)).client();
    eng.observe_batch(&pattern_batch(8, 40));
    let mut out = Vec::new();
    eng.forecast_messages(0, 4, &mut out);
    let snap = eng.telemetry().expect("telemetry enabled");
    let total = eng.metrics().total();
    assert_eq!(snap.counter("events_ingested"), Some(total.events_ingested));
    assert_eq!(snap.counter("hits"), Some(total.hits));
    assert_eq!(snap.counter("misses"), Some(total.misses));
    assert_eq!(snap.counter("abstentions"), Some(total.abstentions));
    assert_eq!(snap.counter("period_churn"), Some(total.period_churn));
    assert_eq!(snap.counter("evicted"), Some(total.evicted));
    assert_eq!(
        snap.counter("forecasts_served"),
        Some(total.forecasts_served)
    );
    assert_eq!(snap.gauge("resident_streams"), Some(total.resident_streams));
    assert_quantiles_monotone(&snap, "observe_batch_ns");
    assert_quantiles_monotone(&snap, "observe_event_ns");
    assert_quantiles_monotone(&snap, "forecast_ns");
}

#[test]
fn telemetry_disabled_is_none_everywhere_and_costs_no_snapshot() {
    let mut shard = Shard::new(DpdConfig::default());
    shard.observe_all_at(&pattern_batch(4, 10), 0);
    assert!(shard.telemetry_snapshot().is_none());
    let peng = PersistentEngine::new(EngineConfig::with_shards(2));
    let client = peng.client();
    client.observe_batch(&pattern_batch(4, 10));
    assert!(client.telemetry().is_none());
    let fed = FederatedEngine::new(FederationConfig::new(2, 1));
    fed.client().observe_batch(&pattern_batch(4, 10));
    assert!(fed.telemetry().is_none());
}

/// Sharding is a throughput device, never a telemetry device: the
/// data-deterministic histogram (`lock_run_events`) recorded across 3
/// shards and merged must be bit-identical to recording the same
/// streams into one shard. Time-based histograms can't be compared
/// across runs, but their merged counts must still sum exactly.
#[test]
fn sharded_merge_equals_single_shard_recording() {
    let cfg = DpdConfig::default();
    let tcfg = TelemetryConfig::enabled();
    let batch = pattern_batch(9, 60);

    // One shard sees everything.
    let mut single = Shard::with_ttl(cfg.clone(), None);
    single.enable_telemetry(&tcfg, 0);
    single.observe_all_at(&batch, 0);

    // Three shards see a rank-partition of the same stream set.
    let mut shards: Vec<Shard> = (0..3)
        .map(|i| {
            let mut s = Shard::with_ttl(cfg.clone(), None);
            s.enable_telemetry(&tcfg, i);
            s
        })
        .collect();
    for obs in &batch {
        let s = (obs.key.rank % 3) as usize;
        shards[s].observe_all_at(std::slice::from_ref(obs), 0);
    }
    let mut merged = TelemetrySnapshot::new();
    for s in &shards {
        merged.merge(&s.telemetry_snapshot().expect("enabled"));
    }
    let single_snap = single.telemetry_snapshot().expect("enabled");

    assert_eq!(
        merged.histogram("lock_run_events"),
        single_snap.histogram("lock_run_events"),
        "data-deterministic histogram is partition-invariant"
    );
    assert_eq!(
        merged.counter("events_ingested"),
        single_snap.counter("events_ingested")
    );
    assert_eq!(
        merged.counter("period_churn"),
        single_snap.counter("period_churn")
    );
    assert_eq!(
        merged.gauge("resident_streams"),
        single_snap.gauge("resident_streams")
    );
    let m = merged.histogram("observe_event_ns").unwrap();
    let s = single_snap.histogram("observe_event_ns").unwrap();
    assert_eq!(m.count(), s.count(), "per-event samples sum across shards");
}

#[test]
fn flight_recorder_attributes_evictions_and_churn() {
    let eng = PersistentEngine::new(
        EngineConfig::with_shards(1)
            .with_ttl(8)
            .with_telemetry(TelemetryConfig::enabled()),
    )
    .client();
    // Rank 0 trains, then rank 1's traffic pushes rank 0 past its TTL.
    let warm: Vec<Observation> = (0..6).map(|i| Observation::new(skey(0), i % 2)).collect();
    eng.observe_batch(&warm);
    let filler: Vec<Observation> = (0..20).map(|i| Observation::new(skey(1), i % 2)).collect();
    eng.observe_batch(&filler);
    eng.sweep_expired();
    let snap = eng.telemetry().expect("enabled");
    let evictions: Vec<_> = snap
        .flight()
        .iter()
        .filter(|e| e.kind == FlightKind::Eviction)
        .collect();
    assert!(!evictions.is_empty(), "TTL eviction reaches the flight log");
    assert!(
        evictions.iter().any(|e| e.a == 0),
        "rank 0 is the evicted stream: {evictions:?}"
    );
    assert!(
        snap.flight()
            .iter()
            .any(|e| e.kind == FlightKind::PeriodChurn),
        "period locks churned during warmup"
    );
    // Stamps are engine time: within the submitted range, ascending.
    let stamps: Vec<u64> = snap.flight().iter().map(|e| e.at).collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "sorted by stamp");
    assert!(stamps.iter().all(|&at| at <= 26), "stamps in engine time");
}

#[test]
fn persistent_telemetry_records_queue_wait_and_matches_counters() {
    let eng = PersistentEngine::new(telemetry_cfg(2));
    let client = eng.client();
    for _ in 0..10 {
        client.observe_batch(&pattern_batch(6, 10));
    }
    let total = client.metrics_total();
    let snap = client.telemetry().expect("enabled");
    assert_eq!(snap.counter("events_ingested"), Some(total.events_ingested));
    assert_eq!(snap.gauge("resident_streams"), Some(total.resident_streams));
    assert_quantiles_monotone(&snap, "queue_wait_ns");
    assert_quantiles_monotone(&snap, "observe_batch_ns");
    // Lane counters are client-side injections.
    assert_eq!(snap.counter("send_blocked"), Some(total.send_blocked));
    assert_eq!(snap.counter("shed_events"), Some(total.shed_events));
}

#[test]
fn backpressure_block_and_shed_reach_the_flight_log() {
    // Block: cap-1 lane + throttled worker ⇒ blocked sends recorded.
    let eng = PersistentEngine::new(
        telemetry_cfg(1).with_queue_cap(1), // Block is the default policy
    );
    eng.debug_throttle_worker(0, Duration::from_millis(2));
    let client = eng.client();
    let batch: Vec<Observation> = (0..5).map(|_| Observation::new(skey(0), 1)).collect();
    for _ in 0..8 {
        client.observe_batch(&batch);
    }
    eng.debug_throttle_worker(0, Duration::ZERO);
    let snap = client.telemetry().expect("enabled");
    let blocks: Vec<_> = snap
        .flight()
        .iter()
        .filter(|e| e.kind == FlightKind::BackpressureBlock)
        .collect();
    assert!(!blocks.is_empty(), "stalled cap-1 lane must block");
    assert!(blocks.iter().all(|e| e.shard == 0 && e.a == 5));
    let h = snap.histogram("send_block_ns").expect("block histogram");
    assert_eq!(h.count(), snap.counter("send_blocked").unwrap());

    // Shed: dropped legs leave shed events with exact counts.
    let eng = PersistentEngine::new(
        telemetry_cfg(1)
            .with_queue_cap(1)
            .with_backpressure(BackpressurePolicy::Shed),
    );
    eng.debug_throttle_worker(0, Duration::from_millis(30));
    let client = eng.client();
    let mut shed = 0;
    for _ in 0..6 {
        shed += client.observe_batch(&batch).shed;
    }
    eng.debug_throttle_worker(0, Duration::ZERO);
    assert!(shed > 0, "stalled cap-1 lane must shed");
    let snap = client.telemetry().expect("enabled");
    let shed_logged: u64 = snap
        .flight()
        .iter()
        .filter(|e| e.kind == FlightKind::BackpressureShed)
        .map(|e| e.a)
        .sum();
    assert_eq!(shed_logged, shed, "every shed leg logged with its size");
    assert_eq!(snap.counter("shed_events"), Some(shed));
}

/// Chaos kill: a dead worker must (a) surface a `worker_gone` flight
/// event with exact shard attribution, and (b) still contribute its
/// pre-death counters through the morgue snapshot parked on exit.
#[test]
fn chaos_killed_worker_leaves_flight_event_and_morgue_snapshot() {
    let eng = PersistentEngine::new(telemetry_cfg(2));
    let client = eng.client();
    client.observe_batch(&pattern_batch(8, 20));
    let pre_kill = client.metrics_total().events_ingested;
    let dead = eng.shard_for(0);
    eng.debug_kill_worker(dead, true);
    let err = client
        .try_observe_batch(&[Observation::new(skey(0), 1)])
        .unwrap_err();
    assert_eq!(err.shard, dead);
    let snap = client.telemetry().expect("survives a dead worker");
    let gone: Vec<_> = snap
        .flight()
        .iter()
        .filter(|e| e.kind == FlightKind::WorkerGone)
        .collect();
    assert!(!gone.is_empty(), "the death was sighted");
    assert!(gone.iter().all(|e| e.shard == dead as u32));
    assert_eq!(
        snap.counter("events_ingested"),
        Some(pre_kill),
        "morgue preserves the dead shard's ingest history"
    );
}

#[test]
fn federation_telemetry_merges_members_with_attribution() {
    let fed = FederatedEngine::new(FederationConfig::new(2, 1).member_config(telemetry_cfg(1)));
    let client = fed.client();
    // Find jobs landing on each member.
    let job0 = (0..32).find(|&j| fed.member_of(j) == 0).unwrap();
    let job1 = (0..32).find(|&j| fed.member_of(j) == 1).unwrap();
    for job in [job0, job1] {
        let batch: Vec<Observation> = (0..40)
            .map(|i| Observation::new(jkey(job, 0), i % 2))
            .collect();
        client.observe_batch(&batch);
    }
    let snap = client.telemetry().expect("all members enabled");
    assert_eq!(
        snap.counter("events_ingested"),
        Some(fed.metrics_total().events_ingested)
    );
    assert_quantiles_monotone(&snap, "route_observe_ns");
    let routes = snap.histogram("route_observe_ns").unwrap();
    let r0 = snap.histogram("route_observe_ns_m0").unwrap();
    let r1 = snap.histogram("route_observe_ns_m1").unwrap();
    assert_eq!(routes.count(), r0.count() + r1.count());
    assert_eq!(r0.count(), 1, "one dispatch to member 0");
    assert_eq!(r1.count(), 1, "one dispatch to member 1");
    // Member flight events carry their member index.
    assert!(snap
        .flight()
        .iter()
        .filter(|e| e.kind == FlightKind::PeriodChurn)
        .any(|e| e.member == 0 || e.member == 1));
}

#[test]
fn federation_chaos_kill_attributes_job_and_member() {
    let fed = FederatedEngine::new(FederationConfig::new(2, 1).member_config(telemetry_cfg(1)));
    let client = fed.client();
    let job0 = (0..32).find(|&j| fed.member_of(j) == 0).unwrap();
    client.observe_batch(&[Observation::new(jkey(job0, 0), 1)]);
    fed.member(0).debug_kill_worker(0, true);
    let err = client
        .try_observe_batch(&[Observation::new(jkey(job0, 0), 2)])
        .unwrap_err();
    assert_eq!(err.member, 0);
    assert_eq!(err.job, job0);
    let snap = fed.telemetry().expect("tolerant of a dead member worker");
    let gone: Vec<_> = snap
        .flight()
        .iter()
        .filter(|e| e.kind == FlightKind::WorkerGone && e.member == 0)
        .collect();
    assert!(
        gone.iter().any(|e| e.job == job0 && e.shard == 0),
        "federation ring pins the death to (job, member, shard): {gone:?}"
    );
}

#[test]
fn job_migration_reaches_the_federation_flight_log() {
    let fed = FederatedEngine::new(FederationConfig::new(2, 1).member_config(telemetry_cfg(1)));
    let client = fed.client();
    let job = (0..32).find(|&j| fed.member_of(j) == 0).unwrap();
    let batch: Vec<Observation> = (0..30)
        .map(|i| Observation::new(jkey(job, (i % 3) as u32), i % 2))
        .collect();
    client.observe_batch(&batch);
    let moved = fed.migrate_job(job, 0, 1).expect("migration");
    assert_eq!(moved, 3, "three streams moved");
    let snap = fed.telemetry().expect("enabled");
    let migrations: Vec<_> = snap
        .flight()
        .iter()
        .filter(|e| e.kind == FlightKind::JobMigrated)
        .collect();
    assert_eq!(migrations.len(), 1, "one event per migration");
    let e = migrations[0];
    assert_eq!((e.member, e.job, e.a, e.b), (0, job, 3, 1));
}

/// Satellite regression for the sum-of-gauges contract: after TTL and
/// forced evictions, the summed `resident_streams` gauge must agree
/// exactly between a one-shard and a three-shard engine fed one
/// workload, and with the telemetry gauge.
#[test]
fn resident_streams_gauge_sums_exactly_after_eviction() {
    let cfg = telemetry_cfg(3).with_ttl(64);
    let batch = pattern_batch(12, 30);
    let run = |cfg: EngineConfig| {
        let client = PersistentEngine::new(cfg).client();
        client.observe_batch(&batch);
        client.evict_stream(skey(3));
        client.evict_stream(skey(7));
        client.sweep_expired();
        client
    };
    let solo = run(EngineConfig {
        shards: 1,
        ..cfg.clone()
    });
    let client = run(cfg);

    let s_total = solo.metrics_total();
    let p_total = client.metrics_total();
    assert_eq!(s_total.resident_streams, p_total.resident_streams);
    assert_eq!(s_total.evicted, p_total.evicted);
    assert_eq!(
        solo.telemetry().unwrap().gauge("resident_streams"),
        Some(s_total.resident_streams)
    );
    assert_eq!(
        client.telemetry().unwrap().gauge("resident_streams"),
        Some(p_total.resident_streams)
    );
}

#[test]
fn snapshot_exports_are_well_formed() {
    let eng = PersistentEngine::new(telemetry_cfg(2)).client();
    eng.observe_batch(&pattern_batch(5, 30));
    let snap = eng.telemetry().unwrap();
    let json = snap.to_json();
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"flight\"",
        "\"events_ingested\"",
        "\"observe_batch_ns\"",
        "\"p99\"",
    ] {
        assert!(json.contains(key), "JSON export misses {key}: {json}");
    }
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE mpp_events_ingested counter"));
    assert!(prom.contains("# TYPE mpp_resident_streams gauge"));
    assert!(prom.contains("mpp_observe_batch_ns{quantile=\"0.99\"}"));
}
