//! # mpp-telemetry — engine observability primitives
//!
//! The serving layers (`mpp-engine`, `mpp-runtime`) answer "how many"
//! questions with [`ShardMetrics`]-style counters; this crate answers
//! "how long" and "what happened when":
//!
//! * [`Histogram`] — a fixed-size, lock-free, log-linear HDR-style
//!   latency histogram (exact below 32, ≤ 1/64 relative quantile error
//!   up to 2^40, saturating above). Recording is wait-free and
//!   allocation-free; histograms merge bucket-wise across shards,
//!   engines, and federation members.
//! * [`Registry`] — named counters / gauges / histograms with lock-free
//!   recording handles.
//! * [`FlightRecorder`] — a fixed-capacity ring of recent structured
//!   events (evictions, backpressure blocks/sheds, worker deaths,
//!   period churn, job migrations, champion swaps, log truncations; see
//!   [`FlightKind`]) with engine-time stamps and member/shard/job
//!   attribution.
//! * [`TelemetrySnapshot`] — an owned, mergeable export surface with
//!   serde-free JSON and Prometheus-style text writers.
//!
//! Everything is hand-rolled: the build environment has no crates.io,
//! and the hot-path requirements (zero allocation, wait-free recording)
//! are easier to prove on 300 lines we own than on a vendored tower.
//!
//! [`ShardMetrics`]: ../mpp_engine/struct.ShardMetrics.html

mod flight;
mod hist;
mod registry;
mod snapshot;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use hist::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS, LINEAR_MAX,
    MAX_QUANTILE_ERROR, SATURATION, SUB_BITS,
};
pub use registry::{Counter, Gauge, Registry};
pub use snapshot::TelemetrySnapshot;

/// Engine-wide telemetry switch and sizing.
///
/// Default is **disabled**: the engine takes no clock readings, records
/// nothing, and `telemetry()` accessors return `None` — the zero-alloc
/// and throughput guarantees of the hot path are unchanged. Enabling
/// costs two monotonic clock reads per *batch* (not per event) plus a
/// handful of relaxed atomic adds; see `BENCH_engine.json` for the
/// measured overhead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; everything below is inert when false.
    pub enabled: bool,
    /// Capacity of each flight-recorder ring (per shard, plus one per
    /// engine client and one per federation). Clamped to ≥ 1.
    pub flight_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            flight_capacity: 256,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry on, default ring sizing.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }

    /// Overrides the flight-recorder ring capacity.
    pub fn flight_capacity(mut self, cap: usize) -> Self {
        self.flight_capacity = cap;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_to_disabled() {
        let c = TelemetryConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.flight_capacity, 256);
        let on = TelemetryConfig::enabled().flight_capacity(8);
        assert!(on.enabled);
        assert_eq!(on.flight_capacity, 8);
    }
}
