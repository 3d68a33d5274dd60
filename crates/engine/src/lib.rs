//! # mpp-engine — sharded multi-stream prediction serving
//!
//! The paper predicts *one* process's message streams with a Dynamic
//! Periodicity Detector. Serving that prediction at production scale —
//! every rank of every job, sender + size + tag streams, millions of
//! concurrent streams — needs an engine, not a per-call factory. This
//! crate is that serving layer: it owns a bank of per-`(rank,
//! stream-kind)` [`DpdPredictor`](mpp_core::dpd::DpdPredictor)s behind
//! a symbol-interning layer, shards them across worker threads by rank
//! hash, and exposes batched, zero-allocation observe/predict APIs.
//!
//! There is one execution mode: a [`PersistentEngine`] runs one
//! long-lived worker thread per shard, each owning one [`Shard`], fed
//! over crossbeam channels through per-thread [`EngineClient`]s
//! (lock-free submission, queries as closures the shard's worker runs,
//! epoch-stamped replies, graceful shutdown on drop). A
//! [`FederatedEngine`] routes jobs over several of them.
//!
//! Four properties are load-bearing and tested:
//!
//! 1. **Prediction equivalence.** For any shard count and batch split,
//!    the engine's predictions are bit-identical to driving one
//!    `DpdPredictor` per stream sequentially (`tests/equivalence.rs`,
//!    `tests/persistence.rs`). Sharding and worker threads are
//!    throughput devices, never semantics devices.
//! 2. **Deterministic eviction.** Idle streams expire after a
//!    configurable TTL ([`EngineConfig::ttl`], measured in engine-time
//!    events) and restart cold — with results independent of *when*
//!    memory-reclamation sweeps run, so the persistent workers can
//!    sweep opportunistically (see the [`shard`] docs for the
//!    argument). Forced eviction is globally LRU by last-observed
//!    event index.
//! 3. **Allocation-lean steady state.** A warm [`Shard`] ingests and
//!    forecasts without allocating (`tests/alloc.rs`): predictors reuse
//!    their fixed [`Ring`](mpp_core::ring::Ring) buffers and forecast
//!    output lands in caller-provided, capacity-reused vectors. A ring
//!    allocates once more, to widen its byte-wide history, when its
//!    stream interns its 257th symbol, which is also when the stream's
//!    interner itself allocates (its id-to-symbol list doubles from 256
//!    entries). The
//!    persistent engine allocates each cross-thread batch leg once, at
//!    its exact size, and the worker that applies it frees it, so no
//!    buffer outlives the batch (`tests/client_heap.rs`). A query
//!    allocates its boxed closure and its boxed result — re-plan-rate,
//!    not event-rate — and forecast output travels to the shard and
//!    back in the caller's vector.
//! 4. **Deterministic backpressure.** With
//!    [`EngineConfig::observe_queue_cap`] set, each persistent shard's
//!    command lane is bounded; a full lane either blocks the submitter
//!    ([`BackpressurePolicy::Block`] — bit-identical to unbounded
//!    ingestion, proven in `tests/backpressure.rs`) or sheds the leg
//!    with exact accounting ([`BackpressurePolicy::Shed`]). Pressure is
//!    visible per shard (`queue_high_water` / `send_blocked` /
//!    `shed_events`) and per call ([`ObserveOutcome`]).
//!
//! ## Module map
//!
//! * [`types`] — [`StreamKey`] addressing (`job` × `rank` ×
//!   sender/size/tag), plain-old-data [`Observation`] / [`Query`]
//!   batch elements.
//! * [`stream_table`] — [`StreamTable`]: the slab-backed key→slot
//!   layer (fxhash-interned keys, free-list slot reuse, intrusive
//!   last-seen-sorted LRU) that keeps per-event bookkeeping to at most
//!   one cheap hash and makes eviction cost independent of the
//!   resident-set size.
//! * [`shard`] — [`Shard`]: single-threaded predictor bank with
//!   interning, online `+1` hit/miss scoring, period-churn tracking,
//!   per-job rollups, and the TTL/eviction rule.
//! * [`config`] — [`EngineConfig`] and its sub-policies, and the
//!   `(job, rank)`-hash shard placement.
//! * [`persistent`] — [`PersistentEngine`] / [`EngineClient`]:
//!   persistent shard workers behind channels.
//! * [`federation`] — [`FederatedEngine`] / [`FederatedClient`]:
//!   multi-engine router partitioning traffic by job: placement is the
//!   stable job hash overridden by explicit pins, a move is an explicit
//!   `migrate_job` call, and eviction/metrics reach every member.
//! * [`metrics`] — [`ShardMetrics`] / [`JobMetrics`] /
//!   [`EngineMetrics`]: events ingested, hit/miss/abstention, period
//!   churn, resident/evicted streams, queue depth — per shard and per
//!   job.
//!
//! ## Quick start
//!
//! ```
//! use mpp_engine::{EngineConfig, Observation, PersistentEngine, StreamKey, StreamKind};
//!
//! let engine = PersistentEngine::new(EngineConfig::with_shards(4));
//! let client = engine.client();
//! // Rank 0 receives from senders 7, 1, 4 cyclically.
//! let key = StreamKey::new(0, StreamKind::Sender);
//! let batch: Vec<Observation> = (0..30)
//!     .map(|i| Observation::new(key, [7u64, 1, 4][i % 3]))
//!     .collect();
//! client.observe_batch(&batch);
//! assert_eq!(client.predict(key, 1), Some(7));
//! assert_eq!(client.predict(key, 2), Some(1));
//! assert_eq!(client.period_of(key), Some(3));
//! assert!(client.metrics_total().hit_rate().unwrap() > 0.5);
//! // Dropping the last handle/client joins the workers.
//! ```

pub mod config;
pub mod federation;
pub mod metrics;
pub mod oplog;
pub mod persistent;
pub mod shard;
pub mod snapshot;
pub mod stream_table;
pub(crate) mod telemetry;
pub mod types;

pub use config::{BackpressurePolicy, EngineConfig, EnsembleConfig};
pub use federation::{
    FedRecoveryReport, FederatedClient, FederatedEngine, FederationConfig, FederationMetrics,
    FederationWorkerGone, MigrateError, QuiesceReport,
};
pub use metrics::{
    merge_job_model_rollups, merge_job_rollups, merge_model_stats, EngineMetrics, JobMetrics,
    ModelStats, ShardMetrics,
};
pub use oplog::{DurabilityConfig, FlushPolicy, WalError, WAL_MAGIC, WAL_VERSION};
pub use persistent::{
    EngineClient, ObserveOutcome, PersistentEngine, RecoverError, RecoveryReport, SpawnError,
    WorkerGone,
};
pub use shard::Shard;
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use stream_table::{SlotId, StreamTable};
pub use types::{JobId, Observation, Query, RankId, StreamKey, StreamKind, DEFAULT_JOB};
// Telemetry vocabulary re-exported so engine consumers need not depend
// on mpp-telemetry directly.
pub use mpp_telemetry::{
    FlightEvent, FlightKind, HistogramSnapshot, TelemetryConfig, TelemetrySnapshot,
};
