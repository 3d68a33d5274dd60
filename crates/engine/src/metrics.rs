//! Per-shard, per-job and aggregate serving metrics.
//!
//! Every shard tracks how much work it ingested, how well its `+1`
//! forecasts tracked reality (scored online: the prediction standing
//! when the next symbol of the same stream arrives), how often period
//! locks changed ("churn", a proxy for phase changes in the workload),
//! the deepest per-batch queue it has seen (load-balance signal across
//! shards), and how many streams were evicted by the TTL policy or by
//! forced eviction.
//!
//! Alongside the per-shard counters, each shard keeps a per-**job**
//! rollup ([`JobMetrics`]) of the scoring counters, so a multi-tenant
//! deployment can answer "how is job 7 predicting?" without touching
//! any other tenant's numbers. Job rollups survive eviction (history is
//! not erased when a tenant's streams are reclaimed) and are summed
//! across shards — and across federation members — on read.
//!
//! ## Gauges vs counters
//!
//! Almost every field here is a **counter**: monotone, never
//! decremented, summed freely across shards, members, and time.
//! `resident_streams` is the one **gauge** — an instantaneous level
//! that goes down on eviction. It still aggregates by *sum* (each
//! shard owns a disjoint stream population, so the shard-level sum IS
//! the engine-level level at snapshot time), but unlike a counter the
//! sum is only meaningful for snapshots taken together — see
//! [`EngineMetrics::total`]. `max_batch_depth` and `queue_high_water`
//! are high-water marks and aggregate by max.
//!
//! ## Counters vs telemetry
//!
//! These metrics answer *how much / how well*: exact totals cheap
//! enough to maintain unconditionally on every event. Latency
//! distributions, queue-wait quantiles, and the flight-recorder event
//! log answer *how long / what happened* and cost clock reads, so they
//! live behind the opt-in telemetry layer
//! ([`EngineConfig::telemetry`](crate::EngineConfig)) and are exported
//! through [`TelemetrySnapshot`](mpp_telemetry::TelemetrySnapshot) —
//! which embeds these counter totals on export so the two surfaces can
//! always be cross-checked.

use crate::types::JobId;

/// Counters for one shard.
///
/// ## Prediction-serving semantics
///
/// Two distinct serving shapes are counted separately so neither
/// inflates the other:
///
/// * `predictions_served` counts **explicit predict queries** — one per
///   [`Query`](crate::Query) answered by `predict`/`predict_at`/
///   `predict_batch`, including `None` answers.
/// * `forecasts_served` counts **depth-k forecasts** — one per
///   `forecast_messages`/`forecast_at` call, however deep. The
///   per-stream work inside a forecast (sender + size, `depth` horizons
///   each) is reported explicitly in `forecast_predictions`
///   (`2 × depth` per call) rather than being folded into
///   `predictions_served` — a depth-5 forecast is one serving decision,
///   not ten queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Stream elements ingested via observe paths.
    pub events_ingested: u64,
    /// Explicit predict queries answered (including `None`s); forecast
    /// calls are counted in `forecasts_served` instead.
    pub predictions_served: u64,
    /// Depth-k (sender, size) forecasts served: one per
    /// `forecast_messages`/`forecast_at` call.
    pub forecasts_served: u64,
    /// Per-stream forecast predictions evaluated inside forecasts
    /// (2 streams × depth per call).
    pub forecast_predictions: u64,
    /// `+1` forecasts that matched the subsequently observed symbol.
    pub hits: u64,
    /// `+1` forecasts that existed but did not match the next symbol.
    pub misses: u64,
    /// Observations at which no `+1` forecast was standing (cold or
    /// unlocked streams); neither hit nor miss.
    pub abstentions: u64,
    /// Number of times any stream's detected period changed (including
    /// lock acquisitions and losses).
    pub period_churn: u64,
    /// Distinct streams currently resident in this shard's predictor
    /// bank. Includes streams past their TTL that no sweep has
    /// reclaimed yet (they predict `None` and restart cold either way).
    pub resident_streams: u64,
    /// Streams reclaimed so far: TTL expiries (counted once, whether
    /// noticed by a sweep or lazily at the next touch) plus forced
    /// evictions.
    pub evicted: u64,
    /// Largest number of events this shard received in a single batch.
    pub max_batch_depth: u64,
    /// High-water mark of this shard's command-lane length, sampled
    /// right after each enqueue. With a bounded lane this can never
    /// exceed `observe_queue_cap`.
    pub queue_high_water: u64,
    /// Observe submissions that found this shard's bounded lane full
    /// and blocked until the worker drained it (`Block` policy only).
    pub send_blocked: u64,
    /// Events dropped because this shard's bounded lane was full
    /// (`Shed` policy only). `events_ingested + shed_events` equals the
    /// events submitted toward this shard.
    pub shed_events: u64,
}

impl ShardMetrics {
    /// Online `+1` hit rate over scored observations; `None` before any
    /// forecast was scored.
    pub fn hit_rate(&self) -> Option<f64> {
        let scored = self.hits + self.misses;
        if scored == 0 {
            return None;
        }
        Some(self.hits as f64 / scored as f64)
    }

    /// Adds `other`'s counters into `self` (used for aggregation).
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.events_ingested += other.events_ingested;
        self.predictions_served += other.predictions_served;
        self.forecasts_served += other.forecasts_served;
        self.forecast_predictions += other.forecast_predictions;
        self.hits += other.hits;
        self.misses += other.misses;
        self.abstentions += other.abstentions;
        self.period_churn += other.period_churn;
        self.resident_streams += other.resident_streams;
        self.evicted += other.evicted;
        self.max_batch_depth = self.max_batch_depth.max(other.max_batch_depth);
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.send_blocked += other.send_blocked;
        self.shed_events += other.shed_events;
    }
}

/// Scoring counters rolled up for one job (one tenant's namespace).
/// A strict subset of [`ShardMetrics`]: the lane/queue fields are
/// per-shard transport properties and have no per-job meaning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Stream elements of this job ingested via observe paths.
    pub events_ingested: u64,
    /// Explicit predict queries served for this job's keys (including
    /// `None`s); forecasts are counted separately, as on
    /// [`ShardMetrics`].
    pub predictions_served: u64,
    /// Depth-k forecasts served for this job's ranks.
    pub forecasts_served: u64,
    /// Per-stream forecast predictions evaluated for this job
    /// (2 streams × depth per forecast).
    pub forecast_predictions: u64,
    /// `+1` forecasts on this job's streams that matched.
    pub hits: u64,
    /// `+1` forecasts on this job's streams that did not match.
    pub misses: u64,
    /// Observations with no standing `+1` forecast.
    pub abstentions: u64,
    /// Period-lock changes across this job's streams.
    pub period_churn: u64,
    /// This job's streams currently resident (refreshed on read).
    pub resident_streams: u64,
    /// This job's streams reclaimed so far (TTL + forced evictions).
    pub evicted: u64,
}

impl JobMetrics {
    /// Online `+1` hit rate over scored observations; `None` before any
    /// forecast was scored.
    pub fn hit_rate(&self) -> Option<f64> {
        let scored = self.hits + self.misses;
        if scored == 0 {
            return None;
        }
        Some(self.hits as f64 / scored as f64)
    }

    /// Adds `other`'s counters into `self` (cross-shard/member rollup).
    pub fn merge(&mut self, other: &JobMetrics) {
        self.events_ingested += other.events_ingested;
        self.predictions_served += other.predictions_served;
        self.forecasts_served += other.forecasts_served;
        self.forecast_predictions += other.forecast_predictions;
        self.hits += other.hits;
        self.misses += other.misses;
        self.abstentions += other.abstentions;
        self.period_churn += other.period_churn;
        self.resident_streams += other.resident_streams;
        self.evicted += other.evicted;
    }
}

/// Per-model scoring counters for one ensemble member (the primary DPD
/// or one challenger). Positional: index 0 of a model-stats vector is
/// always the primary DPD, index `i > 0` is
/// `EnsembleConfig::challengers[i - 1]`
/// ([`crate::EnsembleConfig`]). Empty vectors mean the ensemble is
/// disabled — per-model accounting costs nothing on the DPD-only path.
///
/// Unlike [`ShardMetrics`], every member is scored on **every**
/// observation (that is the whole point of running challengers), so
/// `hits + misses + abstentions` equals the stream's event count for
/// each member, while `champion_events` records how many of those
/// observations this member was the serving champion for — the
/// model-mix split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// `+1` forecasts by this member that matched the next symbol.
    pub hits: u64,
    /// `+1` forecasts by this member that did not match.
    pub misses: u64,
    /// Observations at which this member had no standing forecast.
    pub abstentions: u64,
    /// Observations scored while this member was the serving champion.
    pub champion_events: u64,
    /// Times this member was promoted to champion by a window decision.
    pub swaps_in: u64,
}

impl ModelStats {
    /// Online `+1` hit rate of this member over its scored
    /// observations; `None` before any forecast was scored.
    pub fn hit_rate(&self) -> Option<f64> {
        let scored = self.hits + self.misses;
        if scored == 0 {
            return None;
        }
        Some(self.hits as f64 / scored as f64)
    }

    /// Adds `other`'s counters into `self` (cross-shard/member rollup).
    pub fn merge(&mut self, other: &ModelStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.abstentions += other.abstentions;
        self.champion_events += other.champion_events;
        self.swaps_in += other.swaps_in;
    }
}

/// Merges positional per-model stat vectors (one per shard or member)
/// element-wise. Vectors of different lengths merge to the longest —
/// in practice all non-empty inputs share the roster length.
pub fn merge_model_stats(lists: impl IntoIterator<Item = Vec<ModelStats>>) -> Vec<ModelStats> {
    let mut out: Vec<ModelStats> = Vec::new();
    for list in lists {
        if list.len() > out.len() {
            out.resize(list.len(), ModelStats::default());
        }
        for (acc, m) in out.iter_mut().zip(&list) {
            acc.merge(m);
        }
    }
    out
}

/// Merges per-job rollup lists (as returned by shards or federation
/// members) into one job-sorted list, summing counters of the same job.
pub fn merge_job_rollups(lists: Vec<Vec<(JobId, JobMetrics)>>) -> Vec<(JobId, JobMetrics)> {
    let mut by_job: std::collections::BTreeMap<JobId, JobMetrics> =
        std::collections::BTreeMap::new();
    for list in lists {
        for (job, m) in list {
            by_job.entry(job).or_default().merge(&m);
        }
    }
    by_job.into_iter().collect()
}

/// Merges per-job model-stat lists (one per shard or member) into one
/// job-sorted list, merging same-job vectors element-wise.
pub fn merge_job_model_rollups(
    lists: Vec<Vec<(JobId, Vec<ModelStats>)>>,
) -> Vec<(JobId, Vec<ModelStats>)> {
    let mut by_job: std::collections::BTreeMap<JobId, Vec<ModelStats>> =
        std::collections::BTreeMap::new();
    for list in lists {
        for (job, models) in list {
            let entry = by_job.entry(job).or_default();
            *entry = merge_model_stats([std::mem::take(entry), models]);
        }
    }
    by_job.into_iter().collect()
}

/// Aggregate view across all shards.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardMetrics>,
}

impl EngineMetrics {
    /// Sum of all shard counters (`max_batch_depth` and
    /// `queue_high_water` aggregate by max).
    ///
    /// ## The sum-of-gauges contract
    ///
    /// `resident_streams` is a *gauge* (it decreases on eviction), yet
    /// this total sums it like the counters. That is sound because the
    /// shards partition the stream population: no stream is ever
    /// resident in two shards, so the sum of per-shard levels equals
    /// the engine-wide level *for snapshots taken at one point in
    /// time*. The contract is that `total()` is only called on the
    /// per-shard snapshots of a single `metrics()` collection — never
    /// on snapshots from different moments, whose gauge levels are not
    /// comparable. Engines of every shard count honour it (their
    /// post-eviction totals agree exactly; see
    /// `tests/telemetry.rs::resident_streams_gauge_sums_exactly_after_eviction`),
    /// and [`TelemetrySnapshot`](mpp_telemetry::TelemetrySnapshot)
    /// merges its gauges under the same rule.
    pub fn total(&self) -> ShardMetrics {
        let mut out = ShardMetrics::default();
        for s in &self.shards {
            out.merge(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_cold_and_warm() {
        let mut m = ShardMetrics::default();
        assert_eq!(m.hit_rate(), None);
        m.hits = 3;
        m.misses = 1;
        assert_eq!(m.hit_rate(), Some(0.75));
    }

    #[test]
    fn job_rollups_merge_by_job_and_stay_sorted() {
        let a = vec![
            (
                3u32,
                JobMetrics {
                    hits: 2,
                    misses: 1,
                    events_ingested: 5,
                    ..Default::default()
                },
            ),
            (
                7,
                JobMetrics {
                    hits: 1,
                    ..Default::default()
                },
            ),
        ];
        let b = vec![(
            3u32,
            JobMetrics {
                hits: 4,
                evicted: 2,
                ..Default::default()
            },
        )];
        let merged = merge_job_rollups(vec![a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].0, 3, "sorted by job id");
        assert_eq!(merged[0].1.hits, 6);
        assert_eq!(merged[0].1.evicted, 2);
        assert_eq!(merged[0].1.events_ingested, 5);
        assert_eq!(merged[1].0, 7);
        assert_eq!(merged[0].1.hit_rate(), Some(6.0 / 7.0));
        assert_eq!(JobMetrics::default().hit_rate(), None);
    }

    #[test]
    fn model_stats_merge_elementwise_and_by_job() {
        let a = ModelStats {
            hits: 4,
            misses: 1,
            abstentions: 2,
            champion_events: 7,
            swaps_in: 1,
        };
        let b = ModelStats {
            hits: 1,
            misses: 3,
            ..ModelStats::default()
        };
        assert_eq!(a.hit_rate(), Some(0.8));
        assert_eq!(ModelStats::default().hit_rate(), None);
        let merged = merge_model_stats([vec![a], vec![a, b]]);
        assert_eq!(merged.len(), 2, "longest roster wins");
        assert_eq!(merged[0].hits, 8);
        assert_eq!(merged[0].champion_events, 14);
        assert_eq!(merged[1], b, "missing entries merge as zero");
        assert!(merge_model_stats(Vec::<Vec<ModelStats>>::new()).is_empty());

        let by_job = merge_job_model_rollups(vec![
            vec![(3u32, vec![a]), (7, vec![b])],
            vec![(3, vec![b])],
        ]);
        assert_eq!(by_job.len(), 2);
        assert_eq!(by_job[0].0, 3, "sorted by job id");
        assert_eq!(by_job[0].1[0].hits, 5);
        assert_eq!(by_job[1].0, 7);
        assert_eq!(by_job[1].1[0].misses, 3);
    }

    #[test]
    fn merge_sums_counts_and_maxes_depth() {
        let a = ShardMetrics {
            events_ingested: 10,
            hits: 4,
            misses: 1,
            forecasts_served: 2,
            forecast_predictions: 20,
            max_batch_depth: 7,
            resident_streams: 2,
            evicted: 1,
            queue_high_water: 3,
            send_blocked: 2,
            shed_events: 5,
            ..Default::default()
        };
        let b = ShardMetrics {
            events_ingested: 5,
            hits: 2,
            misses: 2,
            forecasts_served: 1,
            forecast_predictions: 4,
            max_batch_depth: 3,
            resident_streams: 1,
            evicted: 2,
            queue_high_water: 9,
            send_blocked: 1,
            shed_events: 4,
            ..Default::default()
        };
        let total = EngineMetrics { shards: vec![a, b] }.total();
        assert_eq!(total.events_ingested, 15);
        assert_eq!(total.hits, 6);
        assert_eq!(total.misses, 3);
        assert_eq!(total.forecasts_served, 3);
        assert_eq!(total.forecast_predictions, 24);
        assert_eq!(total.max_batch_depth, 7);
        assert_eq!(total.resident_streams, 3);
        assert_eq!(total.evicted, 3);
        assert_eq!(total.queue_high_water, 9, "high water aggregates by max");
        assert_eq!(total.send_blocked, 3);
        assert_eq!(total.shed_events, 9);
    }
}
