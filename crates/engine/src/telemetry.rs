//! Per-shard telemetry state: the registry-backed latency histograms
//! and the shard's flight-recorder ring.
//!
//! A [`ShardTelemetry`] is owned by its [`Shard`](crate::Shard) (boxed,
//! behind an `Option` so the disabled path costs one branch per batch
//! and nothing per event). All histograms live in a [`Registry`] under
//! stable names, so per-shard snapshots merge name-wise into engine and
//! federation totals:
//!
//! | name               | kind      | semantics |
//! |--------------------|-----------|-----------|
//! | `observe_batch_ns` | histogram | wall time of one per-shard ingest leg |
//! | `observe_event_ns` | histogram | per-event latency, recorded as each leg's mean cost × its event count (one clock pair per batch, not per event) |
//! | `forecast_ns`      | histogram | wall time of one `forecast_at` call |
//! | `queue_wait_ns`    | histogram | enqueue→drain wait of a persistent observe leg |
//! | `lock_run_events`  | histogram | length (in observations) of each period-lock run ended by churn |
//!
//! The per-event histogram is deliberately the distribution of
//! *per-batch means*: timing each event individually would cost two
//! monotonic clock reads (~50 ns) against a ~500 ns event, blowing the
//! ≤ 3 % overhead budget for a precision the batch mean already
//! captures.

use crate::config::EnsembleConfig;
use crate::metrics::{ModelStats, ShardMetrics};
use crate::types::{JobId, RankId, StreamKey};
use mpp_core::PredictorKind;
use mpp_telemetry::{
    FlightEvent, FlightKind, FlightRecorder, Histogram, Registry, TelemetryConfig,
    TelemetrySnapshot,
};
use std::sync::Arc;

/// Telemetry state owned by one shard (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    registry: Registry,
    observe_batch_ns: Arc<Histogram>,
    observe_event_ns: Arc<Histogram>,
    forecast_ns: Arc<Histogram>,
    /// Recorded by the persistent worker on drain; see
    /// [`crate::persistent`].
    pub(crate) queue_wait_ns: Arc<Histogram>,
    lock_run: Arc<Histogram>,
    flight: FlightRecorder,
    shard_id: u32,
}

impl ShardTelemetry {
    pub(crate) fn new(cfg: &TelemetryConfig, shard_id: u32) -> Self {
        let registry = Registry::new();
        ShardTelemetry {
            observe_batch_ns: registry.histogram("observe_batch_ns"),
            observe_event_ns: registry.histogram("observe_event_ns"),
            forecast_ns: registry.histogram("forecast_ns"),
            queue_wait_ns: registry.histogram("queue_wait_ns"),
            lock_run: registry.histogram("lock_run_events"),
            flight: FlightRecorder::new(cfg.flight_capacity),
            shard_id,
            registry,
        }
    }

    /// Records one ingest leg: its wall time and the derived per-event
    /// mean cost (weighted by the leg's event count).
    #[inline]
    pub(crate) fn note_batch(&self, ns: u64, events: usize) {
        self.observe_batch_ns.record(ns);
        if events > 0 {
            self.observe_event_ns
                .record_n(ns / events as u64, events as u64);
        }
    }

    /// Records one `forecast_at` call.
    #[inline]
    pub(crate) fn note_forecast(&self, ns: u64) {
        self.forecast_ns.record(ns);
    }

    /// Records a period change: the ended run's length into the
    /// `lock_run_events` histogram plus a flight event.
    pub(crate) fn note_churn(&mut self, at: u64, job: JobId, rank: RankId, ended_run: u64) {
        self.lock_run.record(ended_run);
        self.flight.push(FlightEvent {
            at,
            kind: FlightKind::PeriodChurn,
            member: 0,
            shard: self.shard_id,
            job,
            a: u64::from(rank),
            b: ended_run,
        });
    }

    /// Records a stream eviction (TTL lazy reset, sweep, LRU, or
    /// explicit) with its job/rank attribution.
    pub(crate) fn note_eviction(&mut self, at: u64, job: JobId, rank: RankId, last_seen: u64) {
        self.flight.push(FlightEvent {
            at,
            kind: FlightKind::Eviction,
            member: 0,
            shard: self.shard_id,
            job,
            a: u64::from(rank),
            b: last_seen,
        });
    }

    /// Records a champion swap on one stream: exact `(job, rank, kind)`
    /// attribution in the flight ring, with the predictor handoff
    /// packed into `b` (see [`FlightKind::ChampionSwapped`]).
    pub(crate) fn note_champion_swap(&mut self, at: u64, key: StreamKey, from: u8, to: u8) {
        self.flight.push(FlightEvent {
            at,
            kind: FlightKind::ChampionSwapped,
            member: 0,
            shard: self.shard_id,
            job: key.job,
            a: ((key.kind.index() as u64) << 32) | u64::from(key.rank),
            b: (u64::from(from) << 8) | u64::from(to),
        });
    }

    /// The shard's exportable snapshot: registry metrics, the flight
    /// ring, and the shard's counter totals (so telemetry consumers can
    /// cross-check against [`ShardMetrics`] without a second query).
    /// With an ensemble, the model-mix counters report how the served
    /// events split across the roster (`model_mix_<label>` = events the
    /// member served as champion) plus the total swap count.
    pub(crate) fn snapshot(
        &self,
        m: &ShardMetrics,
        ensemble: &EnsembleConfig,
        models: &[ModelStats],
    ) -> TelemetrySnapshot {
        let mut s = self.registry.snapshot();
        s.add_counter("events_ingested", m.events_ingested);
        s.add_counter("predictions_served", m.predictions_served);
        s.add_counter("forecasts_served", m.forecasts_served);
        s.add_counter("forecast_predictions", m.forecast_predictions);
        s.add_counter("hits", m.hits);
        s.add_counter("misses", m.misses);
        s.add_counter("abstentions", m.abstentions);
        s.add_counter("period_churn", m.period_churn);
        s.add_counter("evicted", m.evicted);
        s.add_gauge("resident_streams", m.resident_streams);
        if !models.is_empty() {
            s.add_counter("champion_swaps", models.iter().map(|ms| ms.swaps_in).sum());
            for (i, ms) in models.iter().enumerate() {
                let label = if i == 0 {
                    PredictorKind::Dpd.label()
                } else {
                    ensemble.challengers[i - 1].label()
                };
                s.add_counter(&format!("model_mix_{label}"), ms.champion_events);
            }
        }
        s.extend_flight(self.flight.dump());
        s
    }
}
