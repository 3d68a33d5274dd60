//! The synchronous sharded engine: rank-hash partitioning, batched
//! ingest across scoped worker threads, and batched prediction serving.
//!
//! This is the *scoped* execution mode: shards live inside the [`Engine`]
//! value and worker threads are spawned per batch (and joined before
//! `observe_batch` returns). It is the sequential building block and
//! reference semantics for the default serving mode, the
//! [`PersistentEngine`](crate::persistent::PersistentEngine), whose
//! long-lived shard workers are fed over channels and proven
//! bit-identical to this engine in `tests/persistence.rs`.
//!
//! ## Sharding
//!
//! Streams are partitioned by a multiplicative hash of their owning
//! `(job, rank)`, so all three attribute streams of a rank live in the
//! same shard (per-rank advice needs them together) and consecutive
//! ranks — and co-resident jobs — spread across shards instead of
//! clustering. Because predictors are per-stream and a stream never
//! leaves its shard, any shard count produces bit-identical predictions
//! — parallelism changes wall-clock only, never results
//! (property-tested in `tests/equivalence.rs`).
//!
//! ## Hot path
//!
//! [`Engine::observe_batch`] partitions the batch into per-shard index
//! lists held in preallocated scratch buffers (cleared, never shrunk),
//! then drives each non-empty shard on its own scoped worker thread
//! (sequentially when only one shard has work or the batch is below the
//! spawn threshold). No event is boxed or cloned beyond the `Copy` of
//! the 24-byte [`Observation`]; per-stream state reuses the fixed
//! [`mpp_core::Ring`] buffers inside each predictor.
//!
//! ## Time domains and eviction
//!
//! Without a TTL, the engine stamps every ingested event with a 1-based
//! global index ("engine time") that only orders LRU eviction. With
//! [`EngineConfig::ttl`] set, **every job gets its own time domain**:
//! events are stamped from the owning job's clock (the 1-based index in
//! that job's ingest order), so a stream's idle age is measured
//! exclusively in its own tenant's traffic and one job's flood can
//! never expire another job's streams. Streams idle for more than `ttl`
//! events *of their own job* are logically evicted — predictions return
//! `None`, the next observation restarts the stream cold — and their
//! memory is reclaimed by a sweep after each batch (see the
//! [`Shard`](crate::shard) docs for why sweep timing can never change
//! results). [`Engine::evict_stream`] / [`Engine::evict_lru`] force
//! evictions regardless of TTL.

use crate::metrics::{EngineMetrics, JobMetrics, ModelStats, ShardMetrics};
use crate::oplog::DurabilityConfig;
use crate::shard::Shard;
use crate::snapshot::{
    decode_engine_for, decode_job_for, encode_engine, encode_job, EngineSnapshot, JobSnapshot,
    SnapshotError, StreamState,
};
use crate::types::{JobId, Observation, Query, RankId, StreamKey, DEFAULT_JOB};
use fxhash::FxHashMap;
use mpp_core::dpd::DpdConfig;
use mpp_core::PredictorKind;
use mpp_telemetry::{TelemetryConfig, TelemetrySnapshot};

/// What a persistent-engine client does when a shard's bounded observe
/// lane ([`EngineConfig::observe_queue_cap`]) is full. Irrelevant for
/// unbounded lanes and for the scoped [`Engine`], which has no queues.
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
/// symbols, so every shard count and execution mode swaps identically).
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

/// Engine construction parameters (shared by the scoped [`Engine`] and
/// the persistent-worker
/// [`PersistentEngine`](crate::persistent::PersistentEngine)).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shards (worker partitions); must be positive.
    pub shards: usize,
    /// Detector configuration applied to every stream predictor.
    pub dpd: DpdConfig,
    /// Scoped mode only: batches smaller than this are processed inline
    /// even with multiple shards (scoped-thread spawn costs (~10 µs)
    /// would dominate tiny batches). Persistent workers have no spawn
    /// cost, so this knob does not apply there.
    pub parallel_threshold: usize,
    /// Idle-stream TTL in events of the owning job's time: a stream not
    /// observed for more than this many of *its own job's* events is
    /// evicted (predicts `None`, restarts cold, memory reclaimed by
    /// sweeps). Jobs are isolated time domains — co-resident tenants'
    /// traffic never ages another job's streams. `None` disables
    /// eviction.
    pub ttl: Option<u64>,
    /// Persistent mode only: bounds each shard's command lane to this
    /// many queued commands (batch legs and queries). `None` leaves the
    /// lanes unbounded — the pre-backpressure behaviour, where one slow
    /// shard lets its queue grow without limit. Must be positive when
    /// set.
    pub observe_queue_cap: Option<usize>,
    /// Persistent mode only: what `observe_batch` does when a bounded
    /// lane is full. Ignored when `observe_queue_cap` is `None`.
    pub backpressure: BackpressurePolicy,
    /// Latency histograms + flight recorder; disabled by default (the
    /// hot path then takes no clock readings and records nothing). See
    /// [`mpp_telemetry::TelemetryConfig`].
    pub telemetry: TelemetryConfig,
    /// Champion/challenger ensemble; disabled by default (DPD-only,
    /// bit-identical to pre-ensemble builds). See [`EnsembleConfig`].
    pub ensemble: EnsembleConfig,
    /// Persistent mode only: durable observation log + snapshot store
    /// for crash recovery (see [`crate::oplog`]). `None` — the default
    /// — keeps the pre-durability behaviour: nothing is written, a
    /// crash loses everything since the last explicit snapshot.
    pub durability: Option<DurabilityConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 1,
            dpd: DpdConfig::default(),
            parallel_threshold: 1024,
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

    /// Bounds each persistent shard's observe lane to `cap` queued
    /// commands.
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
    /// `durability.dir` (persistent mode; see [`crate::oplog`]).
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
/// across platforms. For job [`DEFAULT_JOB`] (0) it reduces exactly to
/// the pre-namespace rank hash, so single-job shard layouts are
/// unchanged.
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

/// Multi-stream prediction engine, scoped-thread mode. See the
/// [module docs](self).
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    shards: Vec<Shard>,
    /// Per-shard event-index scratch, reused across batches.
    scratch: Vec<Vec<u32>>,
    /// Engine time: number of events ingested so far. Without a TTL,
    /// events are stamped `1..=clock`; with one, stamps come from
    /// `job_clocks` and this only totals ingest (sweep throttling,
    /// telemetry).
    clock: u64,
    /// Per-job clocks (events ingested per job) — the stamp source and
    /// query-time `now` when a TTL is configured; unused otherwise.
    job_clocks: FxHashMap<JobId, u64>,
    /// Per-event stamp column (parallel to the batch), reused across
    /// batches on the TTL path.
    stamp_scratch: Vec<u64>,
}

impl Engine {
    /// Creates an engine with `cfg.shards` empty shards.
    pub fn new(cfg: EngineConfig) -> Self {
        cfg.validate();
        let shards = (0..cfg.shards)
            .map(|i| {
                let mut s = Shard::with_ensemble(cfg.dpd.clone(), cfg.ttl, cfg.ensemble.clone());
                s.enable_telemetry(&cfg.telemetry, i as u32);
                s
            })
            .collect();
        let scratch = (0..cfg.shards).map(|_| Vec::new()).collect();
        Engine {
            cfg,
            shards,
            scratch,
            clock: 0,
            job_clocks: FxHashMap::default(),
            stamp_scratch: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index serving `rank` of the default job.
    pub fn shard_for(&self, rank: RankId) -> usize {
        self.shard_for_job(DEFAULT_JOB, rank)
    }

    /// Shard index serving `rank` of `job`.
    pub fn shard_for_job(&self, job: JobId, rank: RankId) -> usize {
        shard_of(job, rank, self.shards.len())
    }

    /// Engine time: total events ingested so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The current time of `job`'s domain: its own event count when a
    /// TTL partitions time per job, the global clock otherwise (where
    /// `now` only orders LRU, not expiry). This is the `now` every
    /// query on one of `job`'s streams is served at.
    #[inline]
    pub fn job_now(&self, job: JobId) -> u64 {
        if self.cfg.ttl.is_some() {
            self.job_clocks.get(&job).copied().unwrap_or(0)
        } else {
            self.clock
        }
    }

    /// Allocates the next stamp for one event of `job`: the job's own
    /// clock under a TTL, the global clock otherwise. `self.clock` must
    /// already count the event.
    #[inline]
    fn next_stamp(&mut self, job: JobId) -> u64 {
        if self.cfg.ttl.is_some() {
            let c = self.job_clocks.entry(job).or_insert(0);
            *c += 1;
            *c
        } else {
            self.clock
        }
    }

    /// Ingests a single observation (convenience path; batch ingest is
    /// the throughput path).
    #[inline]
    pub fn observe(&mut self, key: StreamKey, value: u64) {
        let s = shard_of_key(key, self.shards.len());
        self.clock += 1;
        let now = self.clock;
        let at = self.next_stamp(key.job);
        let shard = &mut self.shards[s];
        shard.observe_at(Observation::new(key, value), at);
        // Per-event ingest must reclaim too, or TTL'd slots would leak
        // on engines never fed through observe_batch; the throttle
        // keeps this O(1) in the common case.
        shard.maybe_sweep(now);
    }

    /// Fills the per-event stamp column for the TTL path: event `i` of
    /// `batch` gets the next tick of *its job's* clock, in batch order.
    /// Runs of one job (the common trace shape) are memoized so the
    /// steady state pays one hash per job switch, not per event.
    fn fill_stamps(&mut self, batch: &[Observation]) {
        self.stamp_scratch.clear();
        self.stamp_scratch.reserve(batch.len());
        let mut memo: Option<(JobId, u64)> = None;
        for obs in batch {
            let job = obs.key.job;
            let clock = match memo {
                Some((j, c)) if j == job => c,
                _ => {
                    if let Some((j, c)) = memo {
                        self.job_clocks.insert(j, c);
                    }
                    self.job_clocks.get(&job).copied().unwrap_or(0)
                }
            };
            let next = clock + 1;
            memo = Some((job, next));
            self.stamp_scratch.push(next);
        }
        if let Some((j, c)) = memo {
            self.job_clocks.insert(j, c);
        }
    }

    /// Ingests `batch` in order. Events of different ranks may be
    /// processed concurrently (one worker per shard); events of the
    /// same stream always retain their batch order, so results are
    /// independent of the shard count and of thread scheduling.
    pub fn observe_batch(&mut self, batch: &[Observation]) {
        assert!(
            batch.len() <= u32::MAX as usize,
            "batch exceeds u32 index space"
        );
        let base = self.clock;
        self.clock += batch.len() as u64;
        // Per-job stamps only exist under a TTL; without one, global
        // stamps are cheaper (no column write) and expiry never reads
        // them.
        let stamped = self.cfg.ttl.is_some();
        if stamped {
            self.fill_stamps(batch);
        }
        let nshards = self.shards.len();
        if nshards == 1 {
            if stamped {
                self.shards[0].observe_all_stamped(batch, &self.stamp_scratch);
            } else {
                self.shards[0].observe_all_at(batch, base);
            }
            self.sweep_after_batch();
            return;
        }
        for idxs in &mut self.scratch {
            idxs.clear();
        }
        for (i, obs) in batch.iter().enumerate() {
            self.scratch[shard_of_key(obs.key, nshards)].push(i as u32);
        }
        let busy = self.scratch.iter().filter(|s| !s.is_empty()).count();
        if busy <= 1 || batch.len() < self.cfg.parallel_threshold {
            for (shard, idxs) in self.shards.iter_mut().zip(&self.scratch) {
                if !idxs.is_empty() {
                    if stamped {
                        shard.observe_indexed_stamped(batch, idxs, &self.stamp_scratch);
                    } else {
                        shard.observe_indexed_at(batch, idxs, base);
                    }
                }
            }
            self.sweep_after_batch();
            return;
        }
        // The last busy shard runs on the calling thread: N busy shards
        // cost N-1 spawns, and the caller works instead of idling.
        let last_busy = self
            .scratch
            .iter()
            .rposition(|s| !s.is_empty())
            .expect("busy > 1");
        let stamps = &self.stamp_scratch;
        std::thread::scope(|scope| {
            let mut own: Option<(&mut Shard, &Vec<u32>)> = None;
            for (i, (shard, idxs)) in self.shards.iter_mut().zip(&self.scratch).enumerate() {
                if idxs.is_empty() {
                    continue;
                }
                if i == last_busy {
                    own = Some((shard, idxs));
                } else if stamped {
                    scope.spawn(move || shard.observe_indexed_stamped(batch, idxs, stamps));
                } else {
                    scope.spawn(move || shard.observe_indexed_at(batch, idxs, base));
                }
            }
            let (shard, idxs) = own.expect("last busy shard present");
            if stamped {
                shard.observe_indexed_stamped(batch, idxs, stamps);
            } else {
                shard.observe_indexed_at(batch, idxs, base);
            }
        });
        self.sweep_after_batch();
    }

    /// Reclaims expired streams after a batch when a TTL is configured
    /// (throttled to roughly twice per TTL so small batches don't pay
    /// an O(resident-streams) scan each; see [`Shard::maybe_sweep`]).
    /// The engine's per-job clocks are folded into every shard's
    /// watermarks first, so streams of a job whose traffic stopped
    /// landing on a shard still age there.
    fn sweep_after_batch(&mut self) {
        if self.cfg.ttl.is_some() {
            let now = self.clock;
            for shard in &mut self.shards {
                for (&job, &jnow) in &self.job_clocks {
                    shard.fold_job_now(job, jnow);
                }
                shard.maybe_sweep(now);
            }
        }
    }

    /// Serves one query.
    #[inline]
    pub fn predict(&mut self, key: StreamKey, horizon: u32) -> Option<u64> {
        let s = shard_of_key(key, self.shards.len());
        let now = self.job_now(key.job);
        self.shards[s].predict_at(Query::new(key, horizon), now)
    }

    /// Serves `queries`, writing one entry per query into `out`
    /// (cleared first, capacity reused — steady state allocates
    /// nothing). Prediction is read-mostly and cheap (a ring lookup),
    /// so this path stays sequential.
    pub fn predict_batch(&mut self, queries: &[Query], out: &mut Vec<Option<u64>>) {
        out.clear();
        out.reserve(queries.len());
        let nshards = self.shards.len();
        for q in queries {
            let s = shard_of_key(q.key, nshards);
            let now = self.job_now(q.key.job);
            out.push(self.shards[s].predict_at(*q, now));
        }
    }

    /// The next `depth` forecast (sender, size) pairs for `rank` of the
    /// default job — the shape the runtime policies (§2 of the paper)
    /// consume.
    pub fn forecast_messages(
        &mut self,
        rank: RankId,
        depth: usize,
        out: &mut Vec<(Option<u64>, Option<u64>)>,
    ) {
        self.forecast_messages_for_job(DEFAULT_JOB, rank, depth, out);
    }

    /// The next `depth` forecast (sender, size) pairs for `rank` inside
    /// `job`'s namespace.
    pub fn forecast_messages_for_job(
        &mut self,
        job: JobId,
        rank: RankId,
        depth: usize,
        out: &mut Vec<(Option<u64>, Option<u64>)>,
    ) {
        let s = shard_of(job, rank, self.shards.len());
        let now = self.job_now(job);
        self.shards[s].forecast_at(job, rank, depth, now, out);
    }

    /// Detected period of a stream, if locked and not expired.
    pub fn period_of(&self, key: StreamKey) -> Option<usize> {
        self.shards[shard_of_key(key, self.shards.len())].period_of_at(key, self.job_now(key.job))
    }

    /// Detector confidence of a stream's lock.
    pub fn confidence_of(&self, key: StreamKey) -> Option<f64> {
        self.shards[shard_of_key(key, self.shards.len())]
            .confidence_of_at(key, self.job_now(key.job))
    }

    /// Forcibly evicts one stream, returning whether it was resident.
    pub fn evict_stream(&mut self, key: StreamKey) -> bool {
        let s = shard_of_key(key, self.shards.len());
        self.shards[s].evict_stream(key)
    }

    /// Removes every expired stream now (sweeps normally run after each
    /// batch; this forces one), returning how many were reclaimed.
    pub fn sweep_expired(&mut self) -> usize {
        let now = self.clock;
        for shard in &mut self.shards {
            for (&job, &jnow) in &self.job_clocks {
                shard.fold_job_now(job, jnow);
            }
        }
        self.shards.iter_mut().map(|s| s.sweep_expired(now)).sum()
    }

    /// Forcibly evicts the `n` least-recently-observed streams across
    /// all shards (globally LRU by last-observed engine time, ties
    /// broken by key), returning how many were removed.
    pub fn evict_lru(&mut self, n: usize) -> usize {
        let mut candidates: Vec<(u64, StreamKey)> = Vec::new();
        for shard in &self.shards {
            candidates.extend(shard.lru_oldest(n));
        }
        let mut removed = 0;
        for (_, key) in crate::shard::select_lru_victims(candidates, n) {
            if self.evict_stream(key) {
                removed += 1;
            }
        }
        removed
    }

    /// Forcibly evicts every resident stream of `job` across all
    /// shards, returning how many were removed. The job's metric
    /// rollups survive; returning streams restart cold.
    pub fn evict_job(&mut self, job: JobId) -> usize {
        self.shards.iter_mut().map(|s| s.evict_job(job)).sum()
    }

    /// Jobs with at least one resident stream, ascending.
    pub fn resident_jobs(&self) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = self.shards.iter().flat_map(Shard::resident_jobs).collect();
        jobs.sort_unstable();
        jobs.dedup();
        jobs
    }

    /// Per-job scoring rollups summed across shards, ascending by job.
    pub fn job_metrics(&self) -> Vec<(JobId, JobMetrics)> {
        crate::metrics::merge_job_rollups(self.shards.iter().map(Shard::job_metrics).collect())
    }

    /// Per-model ensemble counters summed across shards, positional
    /// over the roster (index 0 = the primary DPD, `i > 0` =
    /// `ensemble.challengers[i - 1]`). Empty when the ensemble is
    /// disabled.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        crate::metrics::merge_model_stats(self.shards.iter().map(Shard::model_stats))
    }

    /// Per-job, per-model ensemble counters summed across shards,
    /// ascending by job. Empty when the ensemble is disabled.
    pub fn job_model_stats(&self) -> Vec<(JobId, Vec<ModelStats>)> {
        crate::metrics::merge_job_model_rollups(
            self.shards.iter().map(Shard::job_model_stats).collect(),
        )
    }

    /// Per-shard metrics snapshot.
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            shards: self.shards.iter().map(Shard::metrics).collect(),
        }
    }

    /// Aggregate metrics across shards.
    pub fn metrics_total(&self) -> ShardMetrics {
        self.metrics().total()
    }

    /// The engine's merged telemetry snapshot (per-shard histograms
    /// summed name-wise, flight rings interleaved by engine time), or
    /// `None` when [`EngineConfig::telemetry`] is disabled.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        if !self.cfg.telemetry.enabled {
            return None;
        }
        let mut total = TelemetrySnapshot::new();
        for shard in &self.shards {
            if let Some(s) = shard.telemetry_snapshot() {
                total.merge(&s);
            }
        }
        Some(total)
    }

    /// Total streams resident across shards.
    pub fn stream_count(&self) -> usize {
        self.shards.iter().map(Shard::stream_count).sum()
    }

    /// Serializes the engine's complete predictive state into a
    /// versioned, checksummed snapshot (see [`crate::snapshot`] for the
    /// format and the exact bit-identity contract). Telemetry and
    /// transport configuration are deliberately excluded.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut job_clocks: Vec<(JobId, u64)> =
            self.job_clocks.iter().map(|(&j, &c)| (j, c)).collect();
        job_clocks.sort_unstable_by_key(|&(j, _)| j);
        encode_engine(&EngineSnapshot {
            shards: u32::try_from(self.shards.len()).expect("shard count fits u32"),
            ttl: self.cfg.ttl,
            dpd: self.cfg.dpd.clone(),
            ensemble: self.cfg.ensemble.clone(),
            clock: self.clock,
            job_clocks,
            shard_states: self.shards.iter().map(Shard::export_state).collect(),
        })
    }

    /// Rebuilds an engine from a [`Engine::snapshot`] blob. `cfg` must
    /// match the snapshot's shard count, TTL, and DPD parameters
    /// ([`SnapshotError::ConfigMismatch`] otherwise — stream placement
    /// and predictor behaviour hang off them); transport knobs
    /// (threshold, queue caps, telemetry) are free to differ. A stream
    /// record that cannot be restored as it stands is
    /// [`SnapshotError::Malformed`], found before anything is built. The
    /// restored engine continues bit-identically to the one snapshot:
    /// every later prediction, metric, and eviction decision matches an
    /// uninterrupted run over the same events.
    pub fn restore(cfg: EngineConfig, bytes: &[u8]) -> Result<Engine, SnapshotError> {
        let snap = decode_engine_for(bytes, &cfg)?;
        let mut eng = Engine::new(cfg);
        eng.clock = snap.clock;
        eng.job_clocks = snap.job_clocks.iter().copied().collect();
        for (shard, st) in eng.shards.iter_mut().zip(&snap.shard_states) {
            shard.restore_state(st);
        }
        Ok(eng)
    }

    /// Serializes one job's slice of the engine — streams, summed
    /// rollup history, and job clock — into a snapshot that restores
    /// into an engine of **any** shard count (streams re-partition on
    /// restore); only TTL and DPD parameters must match. This is the
    /// live-migration payload.
    pub fn snapshot_job(&self, job: JobId) -> Vec<u8> {
        let mut metrics = JobMetrics::default();
        let mut models = Vec::new();
        let mut clock = self.job_now(job);
        let mut streams = Vec::new();
        for shard in &self.shards {
            let (jm, jmodels, wm, ss) = shard.export_job_state(job);
            if let Some(jm) = jm {
                metrics.merge(&jm);
            }
            models = crate::metrics::merge_model_stats([models, jmodels]);
            clock = clock.max(wm);
            streams.extend(ss);
        }
        // Deterministic and recency-ordered: every target shard's
        // domain list receives its subsequence oldest-first.
        streams.sort_unstable_by_key(|s| (s.last_seen, s.key.rank, s.key.kind.index()));
        encode_job(&JobSnapshot {
            job,
            ttl: self.cfg.ttl,
            dpd: self.cfg.dpd.clone(),
            ensemble: self.cfg.ensemble.clone(),
            clock,
            metrics,
            models,
            streams,
        })
    }

    /// Restores a job from an [`Engine::snapshot_job`] blob, replacing
    /// any state this engine already held for it, and returns the job
    /// id and how many streams were installed. Streams are partitioned
    /// by *this* engine's shard count. Every stream record is checked
    /// before the job's current state is replaced
    /// ([`SnapshotError::Malformed`] otherwise).
    pub fn restore_job(&mut self, bytes: &[u8]) -> Result<(JobId, usize), SnapshotError> {
        let snap = decode_job_for(bytes, &self.cfg)?;
        let job = snap.job;
        for shard in &mut self.shards {
            shard.extract_job(job);
        }
        let nshards = self.shards.len();
        let mut legs: Vec<Vec<StreamState>> = vec![Vec::new(); nshards];
        let mut max_seen = 0u64;
        for s in &snap.streams {
            max_seen = max_seen.max(s.last_seen);
            legs[shard_of(job, s.key.rank, nshards)].push(s.clone());
        }
        let installed = snap.streams.len();
        for (shard, leg) in self.shards.iter_mut().zip(&legs) {
            if !leg.is_empty() {
                shard.restore_job_streams(job, leg, snap.clock);
            }
        }
        self.shards[0].restore_job_history(job, &snap.metrics, &snap.models);
        if self.cfg.ttl.is_some() {
            let c = self.job_clocks.entry(job).or_insert(0);
            *c = (*c).max(snap.clock);
        } else {
            // Keep global stamping monotone past the imported recency
            // stamps so LRU touch stays on its O(1) fast path.
            self.clock = self.clock.max(max_seen);
        }
        Ok((job, installed))
    }

    /// Tears the engine into its shards (used by the persistent mode to
    /// hand each shard to its worker thread).
    pub(crate) fn into_shards(self) -> Vec<Shard> {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamKind;

    fn skey(rank: u32) -> StreamKey {
        StreamKey::new(rank, StreamKind::Sender)
    }

    fn periodic_batch(
        ranks: u32,
        cycles: usize,
        pattern_of: impl Fn(u32) -> Vec<u64>,
    ) -> Vec<Observation> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            for r in 0..ranks {
                for &v in &pattern_of(r) {
                    out.push(Observation::new(skey(r), v));
                }
            }
        }
        out
    }

    #[test]
    fn single_and_multi_shard_agree() {
        let batch = periodic_batch(16, 12, |r| vec![u64::from(r), u64::from(r) + 1, 40]);
        let queries: Vec<Query> = (0..16)
            .flat_map(|r| (1..=5).map(move |h| Query::new(skey(r), h)))
            .collect();
        let mut solo = Engine::new(EngineConfig::with_shards(1));
        let mut multi = Engine::new(EngineConfig {
            parallel_threshold: 0,
            ..EngineConfig::with_shards(8)
        });
        solo.observe_batch(&batch);
        multi.observe_batch(&batch);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        solo.predict_batch(&queries, &mut a);
        multi.predict_batch(&queries, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(Option::is_some), "locked streams must predict");
    }

    #[test]
    fn batched_equals_incremental() {
        let batch = periodic_batch(5, 10, |r| vec![u64::from(r) % 3, 7, 9]);
        let mut batched = Engine::new(EngineConfig::with_shards(4));
        let mut incremental = Engine::new(EngineConfig::with_shards(4));
        batched.observe_batch(&batch);
        for obs in &batch {
            incremental.observe(obs.key, obs.value);
        }
        for r in 0..5 {
            for h in 1..=4 {
                assert_eq!(
                    batched.predict(skey(r), h),
                    incremental.predict(skey(r), h),
                    "rank {r} horizon {h}"
                );
            }
        }
    }

    #[test]
    fn forecast_messages_pairs_sender_and_size() {
        let mut eng = Engine::new(EngineConfig::with_shards(2));
        for _ in 0..20 {
            for (s, b) in [(1u64, 100u64), (2, 200), (1, 100), (3, 800)] {
                eng.observe(StreamKey::new(0, StreamKind::Sender), s);
                eng.observe(StreamKey::new(0, StreamKind::Size), b);
            }
        }
        let mut advice = Vec::new();
        eng.forecast_messages(0, 4, &mut advice);
        assert_eq!(
            advice,
            vec![
                (Some(1), Some(100)),
                (Some(2), Some(200)),
                (Some(1), Some(100)),
                (Some(3), Some(800)),
            ]
        );
    }

    #[test]
    fn rank_streams_colocate_in_one_shard() {
        let eng = Engine::new(EngineConfig::with_shards(8));
        for r in 0..100 {
            let s = eng.shard_for(r);
            assert!(s < 8);
            // All kinds of one rank map through the same rank hash.
            assert_eq!(eng.shard_for(r), s);
        }
    }

    #[test]
    fn ranks_spread_across_shards() {
        let eng = Engine::new(EngineConfig::with_shards(8));
        let mut seen = [false; 8];
        for r in 0..64 {
            seen[eng.shard_for(r)] = true;
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

    #[test]
    fn jobs_namespace_streams_and_roll_up_separately() {
        let mut eng = Engine::new(EngineConfig::with_shards(4));
        let ka = StreamKey::for_job(1, 0, StreamKind::Sender);
        let kb = StreamKey::for_job(2, 0, StreamKind::Sender);
        for _ in 0..10 {
            for v in [3u64, 9] {
                eng.observe(ka, v);
            }
            eng.observe(kb, 5);
        }
        // Same rank + kind, different jobs: independent predictors.
        assert_eq!(eng.predict(ka, 1), Some(3));
        assert_eq!(eng.predict(kb, 1), Some(5));
        assert_eq!(eng.period_of(ka), Some(2));
        assert_eq!(eng.period_of(kb), Some(1));
        assert_eq!(eng.resident_jobs(), vec![1, 2]);
        let jobs = eng.job_metrics();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].1.events_ingested, 20);
        assert_eq!(jobs[1].1.events_ingested, 10);
        // Per-job forecasts come from the job's own namespace.
        let mut advice = Vec::new();
        eng.forecast_messages_for_job(2, 0, 1, &mut advice);
        assert_eq!(advice, vec![(Some(5), None)]);
        // Evicting job 1 leaves job 2 untouched.
        assert_eq!(eng.evict_job(1), 1);
        assert_eq!(eng.resident_jobs(), vec![2]);
        assert_eq!(eng.predict(ka, 1), None, "evicted job restarts cold");
        assert_eq!(eng.predict(kb, 1), Some(5));
    }

    #[test]
    fn metrics_aggregate_across_shards() {
        let mut eng = Engine::new(EngineConfig {
            parallel_threshold: 0,
            ..EngineConfig::with_shards(4)
        });
        let batch = periodic_batch(8, 10, |_| vec![1, 2, 3]);
        eng.observe_batch(&batch);
        let total = eng.metrics_total();
        assert_eq!(total.events_ingested, batch.len() as u64);
        assert_eq!(total.resident_streams, 8);
        assert!(total.hits > 0, "periodic streams must eventually hit");
        assert!(total.max_batch_depth > 0);
        let per_shard = eng.metrics();
        assert_eq!(per_shard.shards.len(), 4);
        let sum: u64 = per_shard.shards.iter().map(|m| m.events_ingested).sum();
        assert_eq!(sum, batch.len() as u64);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut eng = Engine::new(EngineConfig::with_shards(4));
        eng.observe_batch(&[]);
        assert_eq!(eng.metrics_total().events_ingested, 0);
        let mut out = vec![Some(1)];
        eng.predict_batch(&[], &mut out);
        assert!(out.is_empty(), "predict_batch clears stale output");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Engine::new(EngineConfig::with_shards(0));
    }

    #[test]
    fn ttl_evicts_idle_streams_and_reclaims_memory() {
        let mut eng = Engine::new(EngineConfig {
            ttl: Some(50),
            ..EngineConfig::with_shards(4)
        });
        // Rank 0 trains then goes idle; rank 1 keeps the clock moving.
        let train = periodic_batch(1, 10, |_| vec![4, 5]);
        eng.observe_batch(&train);
        assert_eq!(eng.predict(skey(0), 1), Some(4));
        let filler: Vec<Observation> = (0..100).map(|i| Observation::new(skey(1), i % 2)).collect();
        eng.observe_batch(&filler);
        assert_eq!(eng.predict(skey(0), 1), None, "expired stream");
        assert_eq!(eng.stream_count(), 1, "sweep reclaimed rank 0");
        assert_eq!(eng.metrics_total().evicted, 1);
        // The stream restarts cold on return.
        eng.observe(skey(0), 4);
        assert_eq!(eng.period_of(skey(0)), None);
    }

    #[test]
    fn forced_eviction_is_global_lru() {
        let mut eng = Engine::new(EngineConfig::with_shards(4));
        for r in 0..6u32 {
            eng.observe(skey(r), 1);
        }
        eng.observe(skey(0), 2); // refresh rank 0
        assert_eq!(eng.evict_lru(2), 2, "ranks 1 and 2 are oldest");
        assert_eq!(eng.stream_count(), 4);
        assert!(eng.evict_stream(skey(0)));
        assert_eq!(eng.stream_count(), 3);
        assert_eq!(eng.metrics_total().evicted, 3);
        assert_eq!(eng.sweep_expired(), 0, "no ttl, nothing expires");
    }
}
