//! Versioned engine snapshots: serialize every bit of predictive state
//! — predictor banks, per-stream interners, stream-table recency order,
//! per-job clocks and metric rollups — into a self-describing binary
//! blob, and restore it into a fresh engine **bit-identically**: every
//! prediction, period, confidence, metric counter, and LRU victim
//! choice after a snapshot→restore cut equals the uninterrupted run
//! (differential-tested in `tests/snapshot.rs`).
//!
//! ## Wire format (version 2)
//!
//! ```text
//! magic    8 B   b"MPPSNAP\0"
//! version  4 B   u32 LE (currently 2)
//! length   8 B   u64 LE — payload byte count
//! payload  …     scope tag (engine | job) + scope-specific body
//! checksum 8 B   u64 LE — FNV-1a over the payload
//! ```
//!
//! Version 2 added the champion/challenger ensemble: the config
//! fingerprint grew the [`EnsembleConfig`] (challenger roster, scoring
//! window, swap hysteresis), per-stream state grew each member's word
//! codec + standing forecast + window counters, and shard/job state
//! grew positional per-model counter rollups. Version-1 blobs are
//! rejected with [`SnapshotError::VersionMismatch`] — the predictor
//! abstraction changed underneath, so silently restoring v1 bits would
//! forfeit the bit-identity contract the version field exists to
//! protect.
//!
//! All integers little-endian; `Option`s are a one-byte tag plus the
//! value; `f64`s travel as raw IEEE bits (config equality is exact).
//! Decoding is strict: a short buffer is [`SnapshotError::Truncated`],
//! trailing bytes are [`SnapshotError::TrailingBytes`], a wrong magic,
//! version, or checksum gets its own typed error — a corrupt or
//! future-version snapshot can never be half-restored.
//!
//! Two scopes share the frame:
//!
//! * **Engine scope** — the whole engine: config fingerprint (shard
//!   count, TTL, DPD parameters), global clock, per-job clocks, and one
//!   [`ShardState`] per shard (streams serialized in per-job-domain LRU
//!   order, so restore rebuilds each recency list with O(1) appends).
//!   Restoring requires a config whose shard count, TTL, and DPD
//!   parameters match the snapshot ([`SnapshotError::ConfigMismatch`]
//!   otherwise): stream→shard placement and predictor behaviour both
//!   hang off the config, and silently re-hashing would break the
//!   bit-identity contract.
//! * **Job scope** — one job's streams, rollup history, and clock,
//!   extracted from whichever shards held them. Restore *re-partitions*
//!   by the target's own shard count, so a job snapshot moves freely
//!   between engines of different widths — this is the live-migration
//!   payload ([`crate::FederatedEngine::migrate_job`]). Only the TTL
//!   and DPD parameters must match.
//!
//! What a snapshot deliberately excludes: telemetry histograms and
//! flight rings (observability of a process, not predictive state —
//! a restored engine starts fresh ones) and transport configuration
//! (queue caps, backpressure, parallelism thresholds — free to differ
//! across the cut).

use crate::config::{EngineConfig, EnsembleConfig};
use crate::metrics::{JobMetrics, ModelStats, ShardMetrics};
use crate::types::{JobId, StreamKey, StreamKind};
use fxhash::FxHashSet;
use mpp_core::dpd::DpdConfig;
use mpp_core::{DpdPredictorState, Model, Predictor, PredictorKind, SymbolMap, WordCursor};

/// Leading magic of every snapshot frame.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MPPSNAP\0";

/// The format version this build writes and the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 2;

const SCOPE_ENGINE: u8 = 0;
const SCOPE_JOB: u8 = 1;

/// Why a snapshot failed to decode or restore. Every variant is a
/// distinct, typed condition — callers can tell "wrong file" from
/// "future format" from "bit rot" from "wrong engine shape".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`] — not a
    /// snapshot at all.
    BadMagic,
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The payload hashes to a different value than the stored
    /// checksum — the bytes were corrupted in storage or transit.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the received payload.
        computed: u64,
    },
    /// The buffer ends before the structure it promises.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes remaining.
        available: usize,
        /// Byte offset into the snapshot file where the decoder was
        /// positioned — where the cut begins, for `dd`/hex-dump
        /// forensics on the damaged file.
        offset: usize,
    },
    /// Bytes remain after the last decoded field — the length header
    /// and the structure disagree (a concatenated or padded file, or a
    /// length header lying about its payload).
    TrailingBytes {
        /// Count of undecoded trailing bytes.
        extra: usize,
        /// Byte offset into the snapshot file of the first undecoded
        /// byte.
        offset: usize,
    },
    /// The payload decodes but describes an impossible structure (bad
    /// enum tag, count overflow), or a stream record that cannot be
    /// restored as it stands (a detector history longer than its ring,
    /// an id that was never interned, challenger state that does not
    /// hydrate, a stream outside its job, a key stored twice).
    Malformed(&'static str),
    /// The snapshot is valid but does not fit the target: wrong scope,
    /// shard count, TTL, or DPD parameters.
    ConfigMismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot payload corrupted: checksum {computed:#018x} != stored {stored:#018x}"
            ),
            SnapshotError::Truncated {
                needed,
                available,
                offset,
            } => write!(
                f,
                "snapshot truncated at byte {offset}: needed {needed} more bytes, \
                 {available} available"
            ),
            SnapshotError::TrailingBytes { extra, offset } => {
                write!(
                    f,
                    "snapshot has {extra} undecoded trailing bytes starting at byte {offset}"
                )
            }
            SnapshotError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
            SnapshotError::ConfigMismatch(what) => {
                write!(f, "snapshot does not fit this engine: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serialized state of one stream: everything its [`crate::Shard`] slot
/// holds, with the predictor exported through
/// [`mpp_core::DpdPredictorState`] (retained detector window + counters
/// — enough to rebuild all lag states bit-identically).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    pub(crate) key: StreamKey,
    /// Recency stamp in the owning job's time domain.
    pub(crate) last_seen: u64,
    /// The interner's raw symbols in dense-id order; re-interning them
    /// in order reproduces the exact mapping.
    pub(crate) symbols: Vec<u64>,
    pub(crate) predictor: DpdPredictorState,
    /// Standing `+1` forecast (dense id) awaiting scoring.
    pub(crate) pending_next: Option<u64>,
    /// Last seen period, for churn accounting continuity.
    pub(crate) last_period: Option<u64>,
    /// Champion/challenger state; `None` on DPD-only engines.
    pub(crate) ensemble: Option<EnsembleStreamState>,
}

/// Serialized champion/challenger state of one stream: the serving
/// champion, the in-flight scoring window, and each challenger's full
/// predictor state through its deterministic word codec
/// ([`mpp_core::Predictor::export_words`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleStreamState {
    /// Serving member index: 0 = primary DPD, `i > 0` = challenger
    /// `i - 1`.
    pub(crate) champion: u32,
    /// Observations scored in the current (incomplete) window.
    pub(crate) window_seen: u32,
    /// Per-member hits in the current window (index 0 = primary).
    pub(crate) window_hits: Vec<u32>,
    /// The challengers, in roster order.
    pub(crate) members: Vec<MemberState>,
}

/// Serialized state of one challenger: its roster kind, its standing
/// raw-symbol `+1` forecast, and its word-codec state dump.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberState {
    /// [`PredictorKind::tag`] of this challenger.
    pub(crate) kind_tag: u8,
    /// Standing `+1` forecast in raw symbol space.
    pub(crate) pending: Option<u64>,
    /// The member's [`mpp_core::Predictor::export_words`] dump.
    pub(crate) words: Vec<u64>,
}

/// Serialized state of one shard: counters, clocks, per-job rollups
/// with their time watermarks, and every resident stream in per-domain
/// LRU order (so restore replays each recency list head-to-tail).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    pub(crate) metrics: ShardMetrics,
    pub(crate) clock: u64,
    pub(crate) last_sweep: u64,
    /// `(job, rollup, watermark)` in first-ingest order — the order
    /// both the rollup vector and the stream-table domains intern in,
    /// which restore must reproduce for identical LRU tie-breaks.
    pub(crate) jobs: Vec<(JobId, JobMetrics, u64)>,
    /// Shard-level per-model counters (empty when the ensemble is off).
    pub(crate) model_stats: Vec<ModelStats>,
    /// Per-job per-model counters, parallel to `jobs` (every inner
    /// vector is empty when the ensemble is off).
    pub(crate) job_models: Vec<Vec<ModelStats>>,
    pub(crate) streams: Vec<StreamState>,
}

/// Decoded whole-engine snapshot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EngineSnapshot {
    pub(crate) shards: u32,
    pub(crate) ttl: Option<u64>,
    pub(crate) dpd: DpdConfig,
    pub(crate) ensemble: EnsembleConfig,
    pub(crate) clock: u64,
    /// Per-job clocks, ascending by job (empty without a TTL).
    pub(crate) job_clocks: Vec<(JobId, u64)>,
    pub(crate) shard_states: Vec<ShardState>,
}

/// Decoded job-scoped snapshot (the migration payload).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobSnapshot {
    pub(crate) job: JobId,
    pub(crate) ttl: Option<u64>,
    pub(crate) dpd: DpdConfig,
    pub(crate) ensemble: EnsembleConfig,
    /// The job's clock at the cut (its watermark maximum when the
    /// source had no registry — always ≥ every stream's `last_seen`).
    pub(crate) clock: u64,
    /// The job's rollup summed across the source shards.
    pub(crate) metrics: JobMetrics,
    /// The job's per-model counters summed across the source shards.
    pub(crate) models: Vec<ModelStats>,
    /// All of the job's streams, ascending by `(last_seen, rank,
    /// kind)` — deterministic and already in recency order for the
    /// target's domain lists.
    pub(crate) streams: Vec<StreamState>,
}

/// FNV-1a 64-bit: tiny, dependency-free, and plenty for bit-rot
/// detection (not a cryptographic seal). The one checksum of every
/// on-disk format: snapshots, observation-log frames and the pin table.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("snapshot collection fits u32"));
    }

    fn u64_slice(&mut self, vs: &[u64]) {
        self.len(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }

    fn dpd(&mut self, cfg: &DpdConfig) {
        self.u64(cfg.window as u64);
        self.u64(cfg.max_lag as u64);
        self.u64(cfg.min_lag as u64);
        self.f64(cfg.tolerance);
        self.u64(cfg.min_comparisons as u64);
        self.f64(cfg.evidence_factor);
    }

    fn key(&mut self, key: StreamKey) {
        self.u32(key.job);
        self.u32(key.rank);
        self.u8(key.kind.index() as u8);
    }

    fn ensemble_cfg(&mut self, cfg: &EnsembleConfig) {
        self.len(cfg.challengers.len());
        for &k in &cfg.challengers {
            self.u8(k.tag());
        }
        self.u32(cfg.window);
        self.u32(cfg.min_lead);
    }

    fn model_stats(&mut self, models: &[ModelStats]) {
        self.len(models.len());
        for m in models {
            self.u64(m.hits);
            self.u64(m.misses);
            self.u64(m.abstentions);
            self.u64(m.champion_events);
            self.u64(m.swaps_in);
        }
    }

    fn stream(&mut self, s: &StreamState) {
        self.key(s.key);
        self.u64(s.last_seen);
        self.u64_slice(&s.symbols);
        self.bool(s.predictor.vote);
        self.u64_slice(&s.predictor.history);
        self.u64(s.predictor.det_observations);
        self.u64(s.predictor.history_total);
        self.u64(s.predictor.obs_seen);
        self.u64(s.predictor.period_changes);
        self.u64(s.predictor.last_change_at);
        self.u64(s.predictor.ended_run_len);
        self.opt_u64(s.pending_next);
        self.opt_u64(s.last_period);
        match &s.ensemble {
            None => self.u8(0),
            Some(es) => {
                self.u8(1);
                self.u32(es.champion);
                self.u32(es.window_seen);
                self.len(es.window_hits.len());
                for &h in &es.window_hits {
                    self.u32(h);
                }
                self.len(es.members.len());
                for m in &es.members {
                    self.u8(m.kind_tag);
                    self.opt_u64(m.pending);
                    self.u64_slice(&m.words);
                }
            }
        }
    }

    fn shard_metrics(&mut self, m: &ShardMetrics) {
        for v in [
            m.events_ingested,
            m.predictions_served,
            m.forecasts_served,
            m.forecast_predictions,
            m.hits,
            m.misses,
            m.abstentions,
            m.period_churn,
            m.resident_streams,
            m.evicted,
            m.max_batch_depth,
            m.queue_high_water,
            m.send_blocked,
            m.shed_events,
        ] {
            self.u64(v);
        }
    }

    fn job_metrics(&mut self, m: &JobMetrics) {
        for v in [
            m.events_ingested,
            m.predictions_served,
            m.forecasts_served,
            m.forecast_predictions,
            m.hits,
            m.misses,
            m.abstentions,
            m.period_churn,
            m.resident_streams,
            m.evicted,
        ] {
            self.u64(v);
        }
    }

    fn shard_state(&mut self, s: &ShardState) {
        self.shard_metrics(&s.metrics);
        self.u64(s.clock);
        self.u64(s.last_sweep);
        self.len(s.jobs.len());
        for (job, jm, wm) in &s.jobs {
            self.u32(*job);
            self.job_metrics(jm);
            self.u64(*wm);
        }
        self.model_stats(&s.model_stats);
        self.len(s.job_models.len());
        for jm in &s.job_models {
            self.model_stats(jm);
        }
        self.len(s.streams.len());
        for stream in &s.streams {
            self.stream(stream);
        }
    }
}

/// Wraps a finished payload in the magic/version/length/checksum frame.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = fnv1a(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

pub(crate) fn encode_engine(snap: &EngineSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(SCOPE_ENGINE);
    w.u32(snap.shards);
    w.opt_u64(snap.ttl);
    w.dpd(&snap.dpd);
    w.ensemble_cfg(&snap.ensemble);
    w.u64(snap.clock);
    w.len(snap.job_clocks.len());
    for (job, clock) in &snap.job_clocks {
        w.u32(*job);
        w.u64(*clock);
    }
    w.len(snap.shard_states.len());
    for s in &snap.shard_states {
        w.shard_state(s);
    }
    frame(w.buf)
}

pub(crate) fn encode_job(snap: &JobSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(SCOPE_JOB);
    w.u32(snap.job);
    w.opt_u64(snap.ttl);
    w.dpd(&snap.dpd);
    w.ensemble_cfg(&snap.ensemble);
    w.u64(snap.clock);
    w.job_metrics(&snap.metrics);
    w.model_stats(&snap.models);
    w.len(snap.streams.len());
    for s in &snap.streams {
        w.stream(s);
    }
    frame(w.buf)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Byte offset of `buf[0]` within the snapshot file, so errors can
    /// report absolute file positions (the payload readers sit past
    /// the 20-byte frame header).
    base: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available,
                offset: self.base + self.pos,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool tag out of range")),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Malformed("option tag out of range")),
        }
    }

    fn len(&mut self) -> Result<usize, SnapshotError> {
        Ok(self.u32()? as usize)
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    fn usize64(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    fn dpd(&mut self) -> Result<DpdConfig, SnapshotError> {
        Ok(DpdConfig {
            window: self.usize64()?,
            max_lag: self.usize64()?,
            min_lag: self.usize64()?,
            tolerance: self.f64()?,
            min_comparisons: self.usize64()?,
            evidence_factor: self.f64()?,
        })
    }

    fn key(&mut self) -> Result<StreamKey, SnapshotError> {
        let job = self.u32()?;
        let rank = self.u32()?;
        let kind = self.u8()? as usize;
        if kind >= StreamKind::ALL.len() {
            return Err(SnapshotError::Malformed("stream kind tag out of range"));
        }
        Ok(StreamKey::for_job(job, rank, StreamKind::ALL[kind]))
    }

    fn ensemble_cfg(&mut self) -> Result<EnsembleConfig, SnapshotError> {
        let n = self.len()?;
        let mut challengers = Vec::with_capacity(n.min(1 << 8));
        for _ in 0..n {
            let tag = self.u8()?;
            let kind = PredictorKind::from_tag(tag)
                .ok_or(SnapshotError::Malformed("predictor kind tag out of range"))?;
            challengers.push(kind);
        }
        Ok(EnsembleConfig {
            challengers,
            window: self.u32()?,
            min_lead: self.u32()?,
        })
    }

    fn model_stats(&mut self) -> Result<Vec<ModelStats>, SnapshotError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(1 << 8));
        for _ in 0..n {
            out.push(ModelStats {
                hits: self.u64()?,
                misses: self.u64()?,
                abstentions: self.u64()?,
                champion_events: self.u64()?,
                swaps_in: self.u64()?,
            });
        }
        Ok(out)
    }

    fn stream_ensemble(&mut self) -> Result<Option<EnsembleStreamState>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let champion = self.u32()?;
                let window_seen = self.u32()?;
                let nh = self.len()?;
                let mut window_hits = Vec::with_capacity(nh.min(1 << 8));
                for _ in 0..nh {
                    window_hits.push(self.u32()?);
                }
                let nm = self.len()?;
                if nm + 1 != window_hits.len() {
                    return Err(SnapshotError::Malformed(
                        "ensemble window counters disagree with member count",
                    ));
                }
                if champion as usize >= window_hits.len() {
                    return Err(SnapshotError::Malformed("champion index out of range"));
                }
                let mut members = Vec::with_capacity(nm.min(1 << 8));
                for _ in 0..nm {
                    let kind_tag = self.u8()?;
                    if PredictorKind::from_tag(kind_tag).is_none() {
                        return Err(SnapshotError::Malformed("predictor kind tag out of range"));
                    }
                    members.push(MemberState {
                        kind_tag,
                        pending: self.opt_u64()?,
                        words: self.u64_vec()?,
                    });
                }
                Ok(Some(EnsembleStreamState {
                    champion,
                    window_seen,
                    window_hits,
                    members,
                }))
            }
            _ => Err(SnapshotError::Malformed("ensemble tag out of range")),
        }
    }

    fn stream(&mut self) -> Result<StreamState, SnapshotError> {
        Ok(StreamState {
            key: self.key()?,
            last_seen: self.u64()?,
            symbols: self.u64_vec()?,
            predictor: DpdPredictorState {
                vote: self.bool()?,
                history: self.u64_vec()?,
                det_observations: self.u64()?,
                history_total: self.u64()?,
                obs_seen: self.u64()?,
                period_changes: self.u64()?,
                last_change_at: self.u64()?,
                ended_run_len: self.u64()?,
            },
            pending_next: self.opt_u64()?,
            last_period: self.opt_u64()?,
            ensemble: self.stream_ensemble()?,
        })
    }

    fn shard_metrics(&mut self) -> Result<ShardMetrics, SnapshotError> {
        Ok(ShardMetrics {
            events_ingested: self.u64()?,
            predictions_served: self.u64()?,
            forecasts_served: self.u64()?,
            forecast_predictions: self.u64()?,
            hits: self.u64()?,
            misses: self.u64()?,
            abstentions: self.u64()?,
            period_churn: self.u64()?,
            resident_streams: self.u64()?,
            evicted: self.u64()?,
            max_batch_depth: self.u64()?,
            queue_high_water: self.u64()?,
            send_blocked: self.u64()?,
            shed_events: self.u64()?,
        })
    }

    fn job_metrics(&mut self) -> Result<JobMetrics, SnapshotError> {
        Ok(JobMetrics {
            events_ingested: self.u64()?,
            predictions_served: self.u64()?,
            forecasts_served: self.u64()?,
            forecast_predictions: self.u64()?,
            hits: self.u64()?,
            misses: self.u64()?,
            abstentions: self.u64()?,
            period_churn: self.u64()?,
            resident_streams: self.u64()?,
            evicted: self.u64()?,
        })
    }

    fn shard_state(&mut self) -> Result<ShardState, SnapshotError> {
        let metrics = self.shard_metrics()?;
        let clock = self.u64()?;
        let last_sweep = self.u64()?;
        let njobs = self.len()?;
        let mut jobs = Vec::with_capacity(njobs.min(1 << 16));
        for _ in 0..njobs {
            let job = self.u32()?;
            let jm = self.job_metrics()?;
            let wm = self.u64()?;
            jobs.push((job, jm, wm));
        }
        let model_stats = self.model_stats()?;
        let njm = self.len()?;
        if njm != jobs.len() {
            return Err(SnapshotError::Malformed(
                "per-job model rollup count disagrees with job count",
            ));
        }
        let mut job_models = Vec::with_capacity(njm.min(1 << 16));
        for _ in 0..njm {
            job_models.push(self.model_stats()?);
        }
        let nstreams = self.len()?;
        let mut streams = Vec::with_capacity(nstreams.min(1 << 16));
        for _ in 0..nstreams {
            streams.push(self.stream()?);
        }
        Ok(ShardState {
            metrics,
            clock,
            last_sweep,
            jobs,
            model_stats,
            job_models,
            streams,
        })
    }
}

/// Validates the frame (magic, version, length, checksum) and returns
/// the payload slice.
fn unframe(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 8 || bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader {
        buf: bytes,
        pos: 8,
        base: 0,
    };
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let len = r.u64()? as usize;
    let payload = r.take(len)?;
    let stored = r.u64()?;
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    if r.pos != bytes.len() {
        return Err(SnapshotError::TrailingBytes {
            extra: bytes.len() - r.pos,
            offset: r.pos,
        });
    }
    Ok(payload)
}

/// Byte offset of the payload within a framed snapshot: magic (8) +
/// version (4) + payload length (8).
const PAYLOAD_BASE: usize = 8 + 4 + 8;

pub(crate) fn decode_engine(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
    let payload = unframe(bytes)?;
    let mut r = Reader {
        buf: payload,
        pos: 0,
        base: PAYLOAD_BASE,
    };
    if r.u8()? != SCOPE_ENGINE {
        return Err(SnapshotError::ConfigMismatch(
            "job-scoped snapshot where a whole-engine snapshot was expected".into(),
        ));
    }
    let shards = r.u32()?;
    let ttl = r.opt_u64()?;
    let dpd = r.dpd()?;
    let ensemble = r.ensemble_cfg()?;
    let clock = r.u64()?;
    let njobs = r.len()?;
    let mut job_clocks = Vec::with_capacity(njobs.min(1 << 16));
    for _ in 0..njobs {
        let job = r.u32()?;
        let c = r.u64()?;
        job_clocks.push((job, c));
    }
    let nshards = r.len()?;
    let mut shard_states = Vec::with_capacity(nshards.min(1 << 10));
    for _ in 0..nshards {
        shard_states.push(r.shard_state()?);
    }
    if r.pos != payload.len() {
        return Err(SnapshotError::TrailingBytes {
            extra: payload.len() - r.pos,
            offset: r.base + r.pos,
        });
    }
    if shard_states.len() != shards as usize {
        return Err(SnapshotError::Malformed(
            "shard state count disagrees with header",
        ));
    }
    Ok(EngineSnapshot {
        shards,
        ttl,
        dpd,
        ensemble,
        clock,
        job_clocks,
        shard_states,
    })
}

pub(crate) fn decode_job(bytes: &[u8]) -> Result<JobSnapshot, SnapshotError> {
    let payload = unframe(bytes)?;
    let mut r = Reader {
        buf: payload,
        pos: 0,
        base: PAYLOAD_BASE,
    };
    if r.u8()? != SCOPE_JOB {
        return Err(SnapshotError::ConfigMismatch(
            "whole-engine snapshot where a job-scoped snapshot was expected".into(),
        ));
    }
    let job = r.u32()?;
    let ttl = r.opt_u64()?;
    let dpd = r.dpd()?;
    let ensemble = r.ensemble_cfg()?;
    let clock = r.u64()?;
    let metrics = r.job_metrics()?;
    let models = r.model_stats()?;
    let nstreams = r.len()?;
    let mut streams = Vec::with_capacity(nstreams.min(1 << 16));
    for _ in 0..nstreams {
        streams.push(r.stream()?);
    }
    if r.pos != payload.len() {
        return Err(SnapshotError::TrailingBytes {
            extra: payload.len() - r.pos,
            offset: r.base + r.pos,
        });
    }
    Ok(JobSnapshot {
        job,
        ttl,
        dpd,
        ensemble,
        clock,
        metrics,
        models,
        streams,
    })
}

/// The predictive-state parts of one side of a config comparison — a
/// snapshot header or a live engine's config. `shards` is `None` for
/// job-scoped snapshots, which re-partition freely on restore.
struct ConfigKey<'a> {
    shards: Option<u32>,
    ttl: Option<u64>,
    dpd: &'a DpdConfig,
    ensemble: &'a EnsembleConfig,
}

/// Compares the predictive-state parts of two configs, naming the first
/// difference. Shard counts are checked only when both sides carry one.
fn check_config(snap: &ConfigKey, cfg: &ConfigKey) -> Result<(), SnapshotError> {
    if let (Some(s), Some(c)) = (snap.shards, cfg.shards) {
        if s != c {
            return Err(SnapshotError::ConfigMismatch(format!(
                "snapshot has {s} shards, engine has {c}"
            )));
        }
    }
    if snap.ttl != cfg.ttl {
        return Err(SnapshotError::ConfigMismatch(format!(
            "snapshot TTL {:?}, engine TTL {:?}",
            snap.ttl, cfg.ttl
        )));
    }
    if snap.dpd != cfg.dpd {
        return Err(SnapshotError::ConfigMismatch(
            "DPD parameters differ between snapshot and engine".into(),
        ));
    }
    if snap.ensemble != cfg.ensemble {
        return Err(SnapshotError::ConfigMismatch(
            "ensemble roster/window differ between snapshot and engine".into(),
        ));
    }
    Ok(())
}

/// Decodes a whole-engine snapshot and checks that it fits an engine
/// built from `cfg`: first the config fingerprint, then every stream
/// record. Every restore path calls this (or [`decode_job_for`]) before
/// it builds or replaces any engine state, so a snapshot that fails
/// leaves the target untouched, and one that passes restores without
/// panicking on any engine thread.
pub(crate) fn decode_engine_for(
    bytes: &[u8],
    cfg: &EngineConfig,
) -> Result<EngineSnapshot, SnapshotError> {
    let snap = decode_engine(bytes)?;
    check_config(
        &ConfigKey {
            shards: Some(snap.shards),
            ttl: snap.ttl,
            dpd: &snap.dpd,
            ensemble: &snap.ensemble,
        },
        &ConfigKey {
            shards: Some(cfg.shards as u32),
            ttl: cfg.ttl,
            dpd: &cfg.dpd,
            ensemble: &cfg.ensemble,
        },
    )?;
    for st in &snap.shard_states {
        let jobs: FxHashSet<JobId> = st.jobs.iter().map(|&(job, ..)| job).collect();
        let mut keys = FxHashSet::default();
        for s in &st.streams {
            if !jobs.contains(&s.key.job) {
                return Err(SnapshotError::Malformed(
                    "stream's job is not in its shard's job list",
                ));
            }
            if !keys.insert(s.key) {
                return Err(SnapshotError::Malformed("stream key appears twice"));
            }
            check_stream(s, &snap.dpd, &snap.ensemble)?;
        }
    }
    Ok(snap)
}

/// Decodes a job-scoped snapshot and checks that it fits an engine
/// built from `cfg` (TTL, DPD parameters and roster; the shard count is
/// free) and that every stream record belongs to the job and restores.
/// See [`decode_engine_for`].
pub(crate) fn decode_job_for(
    bytes: &[u8],
    cfg: &EngineConfig,
) -> Result<JobSnapshot, SnapshotError> {
    let snap = decode_job(bytes)?;
    check_config(
        &ConfigKey {
            shards: None,
            ttl: snap.ttl,
            dpd: &snap.dpd,
            ensemble: &snap.ensemble,
        },
        &ConfigKey {
            shards: None,
            ttl: cfg.ttl,
            dpd: &cfg.dpd,
            ensemble: &cfg.ensemble,
        },
    )?;
    let mut keys = FxHashSet::default();
    for s in &snap.streams {
        if s.key.job != snap.job {
            return Err(SnapshotError::Malformed(
                "stream belongs to another job than its snapshot",
            ));
        }
        if !keys.insert(s.key) {
            return Err(SnapshotError::Malformed("stream key appears twice"));
        }
        check_stream(s, &snap.dpd, &snap.ensemble)?;
    }
    Ok(snap)
}

/// Checks what rebuilding one stream slot assumes beyond the framing:
/// the detector history fits its ring, every dense id the record names
/// was interned, and the challenger states match the roster and
/// hydrate. `det_observations` is not compared with the history: the
/// detector's comparison counts follow the history's length alone.
fn check_stream(
    s: &StreamState,
    dpd: &DpdConfig,
    ensemble: &EnsembleConfig,
) -> Result<(), SnapshotError> {
    let p = &s.predictor;
    if p.history.len() > dpd.window.saturating_add(dpd.max_lag) {
        return Err(SnapshotError::Malformed(
            "dpd history is longer than the detector's ring",
        ));
    }
    if p.history_total < p.history.len() as u64 {
        return Err(SnapshotError::Malformed(
            "dpd history is longer than its lifetime push count",
        ));
    }
    let mut interner = SymbolMap::new();
    for &sym in &s.symbols {
        interner.intern(sym);
    }
    if interner.len() != s.symbols.len() {
        return Err(SnapshotError::Malformed("stream interns a symbol twice"));
    }
    let ids = s.symbols.len() as u64;
    if p.history.iter().chain(&s.pending_next).any(|&id| id >= ids) {
        return Err(SnapshotError::Malformed(
            "dpd state names a symbol the stream never interned",
        ));
    }
    match (&s.ensemble, ensemble.enabled()) {
        (None, false) => Ok(()),
        (Some(es), true) if es.members.len() == ensemble.challengers.len() => {
            for (m, &kind) in es.members.iter().zip(&ensemble.challengers) {
                if m.kind_tag != kind.tag() {
                    return Err(SnapshotError::Malformed(
                        "challenger kind disagrees with the roster",
                    ));
                }
                let mut cur = WordCursor::new(&m.words);
                Model::build(kind, dpd)
                    .hydrate_words(&mut cur)
                    .and_then(|()| cur.finish())
                    .map_err(|_| SnapshotError::Malformed("challenger state does not hydrate"))?;
            }
            Ok(())
        }
        _ => Err(SnapshotError::Malformed(
            "stream's ensemble state disagrees with the roster",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checksum is part of every on-disk format, so it is pinned to
    /// the published FNV-1a 64 vectors rather than only round-tripped:
    /// a changed constant would still round-trip, while every file
    /// already written would stop loading.
    #[test]
    fn fnv1a_matches_the_published_64_bit_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn sample_engine_snapshot() -> EngineSnapshot {
        let stream = StreamState {
            key: StreamKey::for_job(2, 7, StreamKind::Size),
            last_seen: 41,
            symbols: vec![1024, 65536, 8],
            predictor: DpdPredictorState {
                vote: true,
                history: vec![0, 1, 2, 0, 1, 2],
                det_observations: 40,
                history_total: 40,
                obs_seen: 40,
                period_changes: 2,
                last_change_at: 9,
                ended_run_len: 3,
            },
            pending_next: Some(1),
            last_period: Some(3),
            ensemble: Some(EnsembleStreamState {
                champion: 1,
                window_seen: 17,
                window_hits: vec![9, 12],
                members: vec![MemberState {
                    kind_tag: PredictorKind::LastValue.tag(),
                    pending: Some(1024),
                    words: vec![7, 1024, 3],
                }],
            }),
        };
        let jm = JobMetrics {
            events_ingested: 40,
            hits: 30,
            misses: 6,
            abstentions: 4,
            resident_streams: 1,
            ..JobMetrics::default()
        };
        let shard = ShardState {
            metrics: ShardMetrics {
                events_ingested: 40,
                hits: 30,
                misses: 6,
                abstentions: 4,
                resident_streams: 1,
                max_batch_depth: 8,
                ..ShardMetrics::default()
            },
            clock: 41,
            last_sweep: 20,
            jobs: vec![(2, jm, 41)],
            model_stats: vec![
                ModelStats {
                    hits: 30,
                    misses: 6,
                    abstentions: 4,
                    champion_events: 23,
                    swaps_in: 0,
                },
                ModelStats {
                    hits: 33,
                    misses: 5,
                    abstentions: 2,
                    champion_events: 17,
                    swaps_in: 1,
                },
            ],
            job_models: vec![vec![
                ModelStats {
                    hits: 30,
                    misses: 6,
                    abstentions: 4,
                    champion_events: 23,
                    swaps_in: 0,
                },
                ModelStats {
                    hits: 33,
                    misses: 5,
                    abstentions: 2,
                    champion_events: 17,
                    swaps_in: 1,
                },
            ]],
            streams: vec![stream],
        };
        EngineSnapshot {
            shards: 2,
            ttl: Some(100),
            dpd: DpdConfig::default(),
            ensemble: EnsembleConfig {
                challengers: vec![PredictorKind::LastValue],
                window: 32,
                min_lead: 4,
            },
            clock: 41,
            job_clocks: vec![(2, 41)],
            shard_states: vec![
                shard.clone(),
                ShardState {
                    metrics: ShardMetrics::default(),
                    clock: 0,
                    last_sweep: 0,
                    jobs: Vec::new(),
                    model_stats: Vec::new(),
                    job_models: Vec::new(),
                    streams: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn engine_snapshot_round_trips_exactly() {
        let snap = sample_engine_snapshot();
        let bytes = encode_engine(&snap);
        assert_eq!(decode_engine(&bytes).expect("round trip"), snap);
    }

    #[test]
    fn job_snapshot_round_trips_exactly() {
        let snap = JobSnapshot {
            job: 5,
            ttl: None,
            dpd: DpdConfig {
                window: 24,
                ..DpdConfig::default()
            },
            ensemble: EnsembleConfig::default(),
            clock: 999,
            metrics: JobMetrics {
                events_ingested: 999,
                ..JobMetrics::default()
            },
            models: Vec::new(),
            streams: vec![StreamState {
                key: StreamKey::for_job(5, 0, StreamKind::Sender),
                last_seen: 999,
                symbols: vec![3],
                predictor: DpdPredictorState {
                    vote: false,
                    history: vec![0; 24],
                    det_observations: 999,
                    history_total: 999,
                    obs_seen: 999,
                    period_changes: 0,
                    last_change_at: 0,
                    ended_run_len: 0,
                },
                pending_next: None,
                last_period: None,
                ensemble: None,
            }],
        };
        let bytes = encode_job(&snap);
        assert_eq!(decode_job(&bytes).expect("round trip"), snap);
    }

    #[test]
    fn bad_magic_is_typed() {
        assert_eq!(
            decode_engine(b"not a snapshot"),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(decode_engine(b""), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected_with_both_versions_named() {
        let mut bytes = encode_engine(&sample_engine_snapshot());
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_engine(&bytes),
            Err(SnapshotError::VersionMismatch {
                found: SNAPSHOT_VERSION + 1,
                supported: SNAPSHOT_VERSION,
            })
        );
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bytes = encode_engine(&sample_engine_snapshot());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        match decode_engine(&bytes) {
            Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = encode_engine(&sample_engine_snapshot());
        for cut in [9, 19, bytes.len() / 2, bytes.len() - 1] {
            match decode_engine(&bytes[..cut]) {
                Err(
                    SnapshotError::Truncated { offset, .. }
                    | SnapshotError::TrailingBytes { offset, .. },
                ) => {
                    assert!(offset <= cut, "cut at {cut}: offset {offset} past the cut");
                }
                Err(SnapshotError::BadMagic | SnapshotError::ChecksumMismatch { .. }) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_engine(&sample_engine_snapshot());
        let end = bytes.len();
        bytes.push(0);
        assert_eq!(
            decode_engine(&bytes),
            Err(SnapshotError::TrailingBytes {
                extra: 1,
                offset: end
            }),
            "the reported offset points at the first undecoded byte"
        );
    }

    #[test]
    fn scope_confusion_is_a_config_mismatch() {
        let engine_bytes = encode_engine(&sample_engine_snapshot());
        match decode_job(&engine_bytes) {
            Err(SnapshotError::ConfigMismatch(_)) => {}
            other => panic!("expected scope mismatch, got {other:?}"),
        }
    }

    #[test]
    fn config_check_names_the_difference() {
        let dpd = DpdConfig::default();
        let ens = EnsembleConfig::default();
        let side = |shards: Option<u32>, ttl: Option<u64>, dpd, ensemble| ConfigKey {
            shards,
            ttl,
            dpd,
            ensemble,
        };
        let engine4 = side(Some(4), None, &dpd, &ens);
        assert!(check_config(&side(Some(4), None, &dpd, &ens), &engine4).is_ok());
        let engine8 = side(Some(8), None, &dpd, &ens);
        let e = check_config(&side(Some(4), None, &dpd, &ens), &engine8).unwrap_err();
        assert!(e.to_string().contains("4 shards"), "{e}");
        let e = check_config(&side(None, Some(10), &dpd, &ens), &engine4).unwrap_err();
        assert!(e.to_string().contains("TTL"), "{e}");
        let other = DpdConfig {
            window: 99,
            ..DpdConfig::default()
        };
        let e = check_config(&side(None, None, &other, &ens), &engine4).unwrap_err();
        assert!(e.to_string().contains("DPD"), "{e}");
        let other_ens = EnsembleConfig {
            challengers: vec![PredictorKind::Stride],
            ..EnsembleConfig::default()
        };
        let e = check_config(&side(None, None, &dpd, &other_ens), &engine4).unwrap_err();
        assert!(e.to_string().contains("ensemble"), "{e}");
    }

    // -----------------------------------------------------------------
    // Well-framed snapshots whose stream records cannot be restored as
    // they stand: every restore path rejects them with `Malformed`
    // before any engine state is built or replaced.
    // -----------------------------------------------------------------

    use crate::persistent::{EngineClient, PersistentEngine};
    use crate::types::Observation;

    /// A two-shard engine with the standard ensemble, holding jobs 1
    /// and 2 on four ranks each, and its config.
    fn trained_engine() -> (EngineConfig, EngineClient) {
        let cfg = EngineConfig::with_shards(2).with_ensemble(EnsembleConfig::standard());
        let eng = PersistentEngine::new(cfg.clone()).client();
        let mut batch = Vec::new();
        for i in 0..300u64 {
            for job in [1, 2] {
                for rank in 0..4u32 {
                    let key = StreamKey::for_job(job, rank, StreamKind::Sender);
                    batch.push(Observation::new(key, (i + u64::from(rank)) % 5));
                }
            }
        }
        eng.observe_batch(&batch);
        (cfg, eng)
    }

    /// Spoils job 1's stream records with `spoil`, which gets the list
    /// holding them and the index of one, and restores the result
    /// everywhere a snapshot enters an engine: the engine snapshot
    /// through `PersistentEngine::restore`, and job 1's snapshot
    /// through `restore_job` into an engine that already holds job 1.
    /// Each must fail with `Malformed(engine_msg)` or
    /// `Malformed(job_msg)`, and the job target must keep serving its
    /// old state.
    fn assert_rejected(
        engine_msg: &str,
        job_msg: &str,
        spoil: impl Fn(&mut Vec<StreamState>, usize),
    ) {
        let (cfg, eng) = trained_engine();
        let good = eng.snapshot();
        let malformed = |r: Result<(), SnapshotError>, msg: &str| match r {
            Err(SnapshotError::Malformed(m)) => assert_eq!(m, msg),
            other => panic!("expected Malformed({msg:?}), got {other:?}"),
        };

        let mut snap = decode_engine(&good).unwrap();
        let (streams, i) = snap
            .shard_states
            .iter_mut()
            .find_map(|st| {
                let i = st.streams.iter().position(|s| s.key.job == 1)?;
                Some((&mut st.streams, i))
            })
            .expect("job 1 has streams");
        spoil(streams, i);
        let bytes = encode_engine(&snap);
        malformed(
            PersistentEngine::restore(cfg.clone(), &bytes).map(drop),
            engine_msg,
        );

        let mut job = decode_job(&eng.snapshot_job(1)).unwrap();
        spoil(&mut job.streams, 0);
        let bytes = encode_job(&job);
        let key = StreamKey::for_job(1, 0, StreamKind::Sender);
        let expect = eng.predict(key, 1);
        let persistent = PersistentEngine::restore(cfg, &good).unwrap();
        let client = persistent.client();
        malformed(client.restore_job(&bytes).map(drop), job_msg);
        assert_eq!(client.stream_count(), eng.stream_count());
        assert_eq!(client.predict(key, 1), expect);
    }

    #[test]
    fn restore_rejects_a_history_longer_than_the_ring() {
        let msg = "dpd history is longer than the detector's ring";
        assert_rejected(msg, msg, |streams, i| {
            let p = &mut streams[i].predictor;
            let cap = DpdConfig::default().window + DpdConfig::default().max_lag;
            p.history.resize(cap + 1, 0);
            p.history_total = p.history_total.max(cap as u64 + 1);
        });
    }

    #[test]
    fn restore_rejects_history_ids_that_were_never_interned() {
        let msg = "dpd state names a symbol the stream never interned";
        assert_rejected(msg, msg, |streams, i| {
            let s = &mut streams[i];
            let last = s.predictor.history.len() - 1;
            s.predictor.history[last] = s.symbols.len() as u64;
        });
    }

    #[test]
    fn restore_rejects_challenger_words_that_do_not_hydrate() {
        let msg = "challenger state does not hydrate";
        assert_rejected(msg, msg, |streams, i| {
            let ens = streams[i].ensemble.as_mut().expect("standard ensemble");
            ens.members[0].words.clear();
        });
    }

    #[test]
    fn restore_rejects_a_stream_outside_its_jobs() {
        assert_rejected(
            "stream's job is not in its shard's job list",
            "stream belongs to another job than its snapshot",
            |streams, i| {
                let key = streams[i].key;
                streams[i].key = StreamKey::for_job(99, key.rank, key.kind);
            },
        );
    }

    #[test]
    fn restore_rejects_a_stream_key_stored_twice() {
        let msg = "stream key appears twice";
        assert_rejected(msg, msg, |streams, i| {
            let twin = streams[i].clone();
            streams.push(twin);
        });
    }

    #[test]
    fn restore_rejects_records_that_contradict_themselves() {
        type Spoil = dyn Fn(&mut Vec<StreamState>, usize);
        let cases: [(&str, &Spoil); 3] = [
            (
                "dpd history is longer than its lifetime push count",
                &|streams, i| streams[i].predictor.history_total = 0,
            ),
            ("stream interns a symbol twice", &|streams, i| {
                let s = &mut streams[i];
                s.symbols.push(s.symbols[0]);
            }),
            (
                "stream's ensemble state disagrees with the roster",
                &|streams, i| {
                    let ens = streams[i].ensemble.as_mut().expect("standard ensemble");
                    ens.members.pop();
                    ens.window_hits.pop();
                    ens.champion = 0;
                },
            ),
        ];
        for (msg, spoil) in cases {
            assert_rejected(msg, msg, spoil);
        }
    }
    /// `a` with the byte at its first payload difference from `b` set
    /// to `tag` and the checksum recomputed, so only that tag is wrong.
    fn with_tag_at_first_difference(a: &[u8], b: &[u8], tag: u8) -> Vec<u8> {
        let header = SNAPSHOT_MAGIC.len() + 4 + 8;
        let at = a[header..]
            .iter()
            .zip(&b[header..])
            .position(|(x, y)| x != y);
        let mut bytes = a.to_vec();
        bytes[header + at.expect("the payloads differ")] = tag;
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[header..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Checksummed snapshots whose enum tags are past their range
    /// decode to a typed `Malformed`, never a panic or a wrong value.
    /// Each case changes one field of the sample's stream so the first
    /// payload difference is that field's tag, then writes the bad tag
    /// there.
    #[test]
    fn out_of_range_enum_tags_are_malformed() {
        /// A change to the sample's stream, the bad tag, the error.
        type Case = (fn(&mut StreamState), u8, &'static str);
        let snap = sample_engine_snapshot();
        let cases: [Case; 5] = [
            (
                |s| s.key.kind = StreamKind::Sender,
                3,
                "stream kind tag out of range",
            ),
            (|s| s.pending_next = None, 2, "option tag out of range"),
            (|s| s.predictor.vote = false, 2, "bool tag out of range"),
            (|s| s.ensemble = None, 2, "ensemble tag out of range"),
            (
                |s| s.ensemble.as_mut().expect("sample has one").members[0].kind_tag += 1,
                u8::MAX,
                "predictor kind tag out of range",
            ),
        ];
        for (change, tag, msg) in cases {
            let mut other = snap.clone();
            change(&mut other.shard_states[0].streams[0]);
            let (a, b) = (encode_engine(&snap), encode_engine(&other));
            let bad = with_tag_at_first_difference(&a, &b, tag);
            assert_eq!(decode_engine(&bad), Err(SnapshotError::Malformed(msg)));
        }
    }
}
