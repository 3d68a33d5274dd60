//! # mpi-predict — facade crate
//!
//! Reproduction of Freitag et al., *"Exploring the Predictability of MPI
//! Messages"* (IPDPS 2003). This crate re-exports the workspace's public
//! API so examples and downstream users need a single dependency:
//!
//! * [`core`] — DPD periodicity detection, predictors, evaluation.
//! * [`engine`] — sharded multi-stream prediction serving engine
//!   (batched zero-allocation observe/predict over per-job, per-rank
//!   sender/size/tag streams), champion/challenger predictor ensembles
//!   with online model selection, plus the multi-engine federation
//!   layer with job-scoped namespaces.
//! * [`sim`] — deterministic MPI simulator with logical and
//!   physical trace capture.
//! * [`bench`](mod@bench) — NAS BT/CG/LU/IS and Sweep3D communication
//!   skeletons.
//! * [`runtime`] — prediction-driven buffer / credit /
//!   protocol policies from §2 of the paper, including the
//!   engine-backed arrival oracle.
//!
//! See `examples/quickstart.rs` for a three-minute tour and
//! `examples/engine_replay.rs` for the serving layer.

pub use mpp_core as core;
pub use mpp_engine as engine;
pub use mpp_mpisim as sim;
pub use mpp_nasbench as bench;
pub use mpp_runtime as runtime;

pub use mpp_core::{
    dpd::{DpdConfig, DpdPredictor, PeriodicityDetector},
    eval::{evaluate_stream, SetEvaluator, StreamEvaluator},
    predictors::{
        FrequencyPredictor, HybridPredictor, LastValuePredictor, MarkovPredictor, Model, Predictor,
        PredictorKind, SingleCyclePredictor, StridePredictor, TagPredictor,
    },
    stream::{Symbol, SymbolMap},
};
pub use mpp_engine::{
    BackpressurePolicy, EngineClient, EngineConfig, EnsembleConfig, FederatedClient,
    FederatedEngine, FederationConfig, FederationWorkerGone, FlightEvent, FlightKind,
    HistogramSnapshot, JobId, JobMetrics, ModelStats, Observation, ObserveOutcome,
    PersistentEngine, Query, SlotId, SnapshotError, StreamKey, StreamKind, StreamTable,
    TelemetryConfig, TelemetrySnapshot, WorkerGone, DEFAULT_JOB, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use mpp_runtime::{EngineHandle, EngineOracleFactory};
