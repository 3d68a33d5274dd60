//! Engine construction parameters and stream placement.
//!
//! [`EngineConfig`] configures a
//! [`PersistentEngine`](crate::PersistentEngine) (and, through
//! [`FederationConfig`](crate::FederationConfig), every member of a
//! federation); [`EnsembleConfig`] and [`BackpressurePolicy`] are its
//! champion/challenger and full-lane sub-policies.
//!
//! ## Sharding
//!
//! Streams are partitioned by a multiplicative hash of their owning
//! `(job, rank)` (`shard_of`), so all three attribute streams of a
//! rank live in the same shard (per-rank advice needs them together)
//! and consecutive ranks — and co-resident jobs — spread across shards
//! instead of clustering. Because predictors are per-stream and a
//! stream never leaves its shard, any shard count produces
//! bit-identical predictions — parallelism changes wall-clock only,
//! never results (property-tested in `tests/equivalence.rs`).

use crate::oplog::DurabilityConfig;
use crate::types::{JobId, RankId, StreamKey};
use mpp_core::dpd::DpdConfig;
use mpp_core::PredictorKind;
use mpp_telemetry::TelemetryConfig;

/// What a persistent-engine client does when a shard's bounded observe
/// lane ([`EngineConfig::observe_queue_cap`]) is full. Irrelevant for
/// unbounded lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the submitting client until the shard worker drains the
    /// lane. Every event is delivered, so predictions and metrics are
    /// bit-identical to unbounded ingestion (property-tested in
    /// `tests/backpressure.rs`); the cost is submitter latency, counted
    /// per shard in `ShardMetrics::send_blocked`.
    #[default]
    Block,
    /// Drop the full lane's whole batch leg and move on, counting every
    /// dropped event in `ShardMetrics::shed_events` and reporting it in
    /// the call's `ObserveOutcome` — the load-shedding mode for
    /// saturation experiments. Queries are never shed.
    Shed,
}

impl BackpressurePolicy {
    /// Lower-case label for reports and `BENCH_engine.json`.
    pub fn label(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::Shed => "shed",
        }
    }
}

/// Champion/challenger ensemble configuration: which roster predictors
/// shadow the primary DPD on every stream, and when a sustained
/// accuracy lead promotes one to serve.
///
/// With an empty challenger list (the default) the engine is exactly
/// the classic DPD-only engine: stream slots carry no ensemble state,
/// no extra predictor runs, and predictions are bit-identical to every
/// pre-ensemble build (pinned by the equivalence/persistence suites and
/// the zero-allocation test, all of which run with the default config).
///
/// With challengers configured, every observation of a stream feeds the
/// primary DPD **and** each challenger; every member's standing `+1`
/// forecast is scored against each arrival. Accuracy is compared over
/// tumbling windows of [`EnsembleConfig::window`] observations per
/// stream: at each window boundary, the member with the most window
/// hits (ties → lowest member index, the primary first) becomes the
/// serving champion **only if** it leads the incumbent by at least
/// [`EnsembleConfig::min_lead`] hits — hysteresis that makes swaps
/// rare, sustained, and deterministic (a pure function of the stream's
/// symbols, so every shard count swaps identically).
///
/// The champion serves `predict`/`forecast`; `period_of` and
/// `confidence_of` always read the primary DPD (challengers have no
/// period notion). Challengers observe and predict **raw** symbols —
/// a stride extrapolation can name a symbol the stream has never
/// carried, which the primary's interned-id space cannot express.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleConfig {
    /// Challenger roster, shadowing the primary DPD. Member index `i`
    /// of all per-model reporting is `challengers[i - 1]` (index 0 is
    /// the primary). Empty disables the ensemble.
    pub challengers: Vec<PredictorKind>,
    /// Tumbling per-stream scoring window, in observations of that
    /// stream. Swap decisions happen only at window boundaries.
    pub window: u32,
    /// Minimum window-hit lead over the incumbent champion required to
    /// swap. Hysteresis: equal-or-slightly-better challengers never
    /// flap the serving model.
    pub min_lead: u32,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            challengers: Vec::new(),
            window: 64,
            min_lead: 8,
        }
    }
}

impl EnsembleConfig {
    /// Whether any challenger is configured (the ensemble machinery is
    /// entirely inert otherwise).
    pub fn enabled(&self) -> bool {
        !self.challengers.is_empty()
    }

    /// Number of scored members: the primary DPD plus the challengers
    /// (0 when disabled — per-model vectors are empty then).
    pub fn roster_len(&self) -> usize {
        if self.enabled() {
            self.challengers.len() + 1
        } else {
            0
        }
    }

    /// The standard challenger roster used by `engine_replay
    /// --ensemble`: the cheap baselines most likely to beat a DPD on
    /// non-periodic streams (last-value for slowly-moving values,
    /// stride for arithmetic ramps, order-1 Markov for repeating
    /// transition structure), with the default window and hysteresis.
    pub fn standard() -> Self {
        EnsembleConfig {
            challengers: vec![
                PredictorKind::LastValue,
                PredictorKind::Stride,
                PredictorKind::Markov1,
            ],
            ..EnsembleConfig::default()
        }
    }

    /// The full challenger roster (`engine_replay --ensemble-full`):
    /// [`EnsembleConfig::standard`]'s trio plus the remaining wired
    /// predictor families — frequency (modal symbol), single-cycle
    /// (fixed-period repetition), tag (context-keyed last value), and
    /// the hybrid cascade. Costlier per event than the standard trio
    /// (seven shadow models score every observation); use it to find
    /// which families matter on a workload, then serve with a trimmed
    /// roster.
    pub fn full() -> Self {
        EnsembleConfig {
            challengers: vec![
                PredictorKind::LastValue,
                PredictorKind::Stride,
                PredictorKind::Markov1,
                PredictorKind::Frequency,
                PredictorKind::SingleCycle,
                PredictorKind::Tag,
                PredictorKind::Hybrid,
            ],
            ..EnsembleConfig::default()
        }
    }

    pub(crate) fn validate(&self) {
        if !self.enabled() {
            return;
        }
        assert!(self.window > 0, "ensemble window must be positive");
        assert!(
            self.challengers.len() < 256,
            "challenger roster must fit a byte of member indices"
        );
        for (i, a) in self.challengers.iter().enumerate() {
            assert!(
                !self.challengers[..i].contains(a),
                "duplicate ensemble challenger {a:?}"
            );
        }
    }
}

/// Construction parameters of a
/// [`PersistentEngine`](crate::PersistentEngine).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shards (worker partitions); must be positive.
    pub shards: usize,
    /// Detector configuration applied to every stream predictor.
    pub dpd: DpdConfig,
    /// Idle-stream TTL in events of the owning job's time: a stream not
    /// observed for more than this many of *its own job's* events is
    /// evicted (predicts `None`, restarts cold, memory reclaimed by
    /// sweeps). Jobs are isolated time domains — co-resident tenants'
    /// traffic never ages another job's streams. `None` disables
    /// eviction.
    pub ttl: Option<u64>,
    /// Bounds each shard's command lane to this many queued commands
    /// (batch legs and queries). `None` leaves the lanes unbounded — the
    /// pre-backpressure behaviour, where one slow shard lets its queue
    /// grow without limit. Must be positive when set.
    pub observe_queue_cap: Option<usize>,
    /// What `observe_batch` does when a bounded lane is full. Ignored
    /// when `observe_queue_cap` is `None`.
    pub backpressure: BackpressurePolicy,
    /// Latency histograms + flight recorder; disabled by default (the
    /// hot path then takes no clock readings and records nothing). See
    /// [`mpp_telemetry::TelemetryConfig`].
    pub telemetry: TelemetryConfig,
    /// Champion/challenger ensemble; disabled by default (DPD-only,
    /// bit-identical to pre-ensemble builds). See [`EnsembleConfig`].
    pub ensemble: EnsembleConfig,
    /// Durable observation log + snapshot store for crash recovery (see
    /// [`crate::oplog`]). `None` — the default — keeps the
    /// pre-durability behaviour: nothing is written, a crash loses
    /// everything since the last explicit snapshot.
    pub durability: Option<DurabilityConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 1,
            dpd: DpdConfig::default(),
            ttl: None,
            observe_queue_cap: None,
            backpressure: BackpressurePolicy::Block,
            telemetry: TelemetryConfig::default(),
            ensemble: EnsembleConfig::default(),
            durability: None,
        }
    }
}

impl EngineConfig {
    /// A config with `shards` shards and default detector settings.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig {
            shards,
            ..EngineConfig::default()
        }
    }

    /// Sets the idle-stream TTL, in events of the owning job's clock
    /// (engine time is a per-job event count — a co-tenant's traffic
    /// never ages another job's streams).
    pub fn with_ttl(mut self, ttl: u64) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Bounds each shard's observe lane to `cap` queued commands.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.observe_queue_cap = Some(cap);
        self
    }

    /// Sets the full-lane policy for bounded observe lanes.
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the telemetry configuration (histograms + flight recorder).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the champion/challenger ensemble configuration.
    pub fn with_ensemble(mut self, ensemble: EnsembleConfig) -> Self {
        self.ensemble = ensemble;
        self
    }

    /// Enables the durable observation log rooted at
    /// `durability.dir` (see [`crate::oplog`]).
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.shards > 0, "engine needs at least one shard");
        assert!(
            self.observe_queue_cap != Some(0),
            "observe_queue_cap must be positive (use None for unbounded lanes)"
        );
        self.dpd.validate();
        self.ensemble.validate();
        if let Some(d) = &self.durability {
            d.validate();
        }
    }
}

/// Fibonacci-multiplicative `(job, rank)` hash: spreads consecutive
/// ranks across shards without clustering, mixes the job namespace into
/// the high input bits so co-resident jobs spread too, and is stable
/// across platforms. For job [`DEFAULT_JOB`](crate::DEFAULT_JOB) (0)
/// it reduces exactly to the pre-namespace rank hash, so single-job
/// shard layouts are unchanged.
#[inline]
pub(crate) fn shard_of(job: JobId, rank: RankId, shards: usize) -> usize {
    let x = u64::from(rank) ^ (u64::from(job) << 32);
    (x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % shards
}

/// Shard index serving `key` (all kinds of a `(job, rank)` colocate).
#[inline]
pub(crate) fn shard_of_key(key: StreamKey, shards: usize) -> usize {
    shard_of(key.job, key.rank, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamKind;

    #[test]
    #[should_panic(expected = "observe_queue_cap must be positive")]
    fn zero_lane_cap_is_rejected() {
        EngineConfig::with_shards(1).with_queue_cap(0).validate();
    }

    #[test]
    #[should_panic(expected = "ensemble window must be positive")]
    fn zero_ensemble_window_is_rejected() {
        let ensemble = EnsembleConfig {
            window: 0,
            ..EnsembleConfig::standard()
        };
        EngineConfig::with_shards(1)
            .with_ensemble(ensemble)
            .validate();
    }

    #[test]
    #[should_panic(expected = "duplicate ensemble challenger")]
    fn duplicate_challenger_is_rejected() {
        let mut ensemble = EnsembleConfig::standard();
        ensemble.challengers.push(PredictorKind::Stride);
        EngineConfig::with_shards(1)
            .with_ensemble(ensemble)
            .validate();
    }

    /// Without challengers the ensemble is inert, so its window and
    /// lead are never read and carry no constraint.
    #[test]
    fn a_disabled_ensemble_is_not_validated() {
        let ensemble = EnsembleConfig {
            window: 0,
            ..EnsembleConfig::default()
        };
        assert_eq!(ensemble.roster_len(), 0);
        EngineConfig::with_shards(1)
            .with_ensemble(ensemble)
            .validate();
    }

    #[test]
    fn rank_streams_colocate_in_one_shard() {
        for r in 0..100 {
            let s = shard_of_key(StreamKey::new(r, StreamKind::Sender), 8);
            assert!(s < 8);
            for kind in StreamKind::ALL {
                assert_eq!(shard_of_key(StreamKey::new(r, kind), 8), s);
            }
        }
    }

    #[test]
    fn ranks_spread_across_shards() {
        let mut seen = [false; 8];
        for r in 0..64 {
            seen[shard_of(0, r, 8)] = true;
        }
        let used = seen.iter().filter(|&&b| b).count();
        assert!(
            used >= 6,
            "64 ranks should populate most of 8 shards, got {used}"
        );
    }

    #[test]
    fn job_hash_reduces_to_rank_hash_for_job_zero_and_spreads_jobs() {
        for shards in [1usize, 2, 5, 8] {
            for r in 0..64u32 {
                assert_eq!(
                    shard_of(0, r, shards),
                    (u64::from(r).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % shards,
                    "job 0 must keep the pre-namespace layout"
                );
            }
        }
        // One rank across many jobs must not pile into one shard.
        let mut seen = [false; 8];
        for job in 0..64u32 {
            seen[shard_of(job, 0, 8)] = true;
        }
        assert!(
            seen.iter().filter(|&&b| b).count() >= 6,
            "64 jobs of one rank should populate most of 8 shards"
        );
    }
}
