//! One shard: a bank of per-stream predictors behind symbol interning.
//!
//! A shard owns every stream whose rank hashes to it, so all processing
//! inside a shard is single-threaded and allocation-free once a stream's
//! slot exists (the [`DpdPredictor`] reuses its fixed-capacity
//! [`mpp_core::Ring`]s; the interner only allocates when a *new* raw
//! symbol appears, which on periodic MPI streams happens a handful of
//! times per stream lifetime, and the ring only when the interner hands
//! out id 256, the first that does not fit its byte-wide history).
//!
//! Interning: predictors operate on dense `u64` ids rather than raw
//! symbols. Because the mapping is injective, equality structure — the
//! only thing the DPD's distance metric consults — is preserved, so the
//! detected periods and the mapped-back predictions are bit-identical to
//! running the predictor on raw symbols (property-tested in
//! `tests/equivalence.rs`). Dense ids also keep each detector's history
//! byte-wide until the stream's alphabet outgrows a byte.
//!
//! ## The slab-backed stream table
//!
//! Per-stream state lives in a [`StreamTable`]: keys are interned once
//! into stable slot ids (fxhash-fronted map, contiguous slab, free-list
//! reuse) and an intrusive last-seen-sorted LRU list is threaded through
//! the slots. The ingest hot path therefore costs **at most one cheap
//! hash per event**, TTL sweeps pop expired slots off the list head in
//! O(reclaimed), and LRU victim selection reads a bounded window
//! instead of sorting the resident set — with victims provably
//! identical to the old collect-and-sort (see `select_lru_victims`
//! and `tests/stream_table.rs`). Each slot also carries a dense index
//! into the shard's per-job rollup vector, so per-event job accounting
//! is an array access, not a second map probe.
//!
//! ## Per-job time domains and the TTL rule
//!
//! Observations carry a *time-domain* stamp. Without a TTL, the stamp
//! is global engine time (the 1-based index of the event in the
//! engine-wide ingest order) and only orders LRU eviction. **With a TTL
//! configured, stamps are allocated from the owning job's own clock** —
//! the 1-based index of the event in *that job's* ingest order — so a
//! stream's age is measured exclusively in its own tenant's traffic.
//! This is the cross-tenant isolation rule: a co-resident job's flood
//! can never advance the clock that expires another job's idle streams
//! (regression-pinned in `tests/persistence.rs`).
//!
//! Each slot remembers the stamp of its latest observation
//! (`last_seen`). With a TTL of `t` events, a stream whose gap
//! `now − last_seen` exceeds `t` — with `now` the *same job's* current
//! time — is **logically evicted**: predictions return `None` and the
//! next observation restarts it cold (fresh predictor and interner).
//! The rule is enforced in two ways that are deliberately
//! indistinguishable:
//!
//! * lazily, when an expired slot is touched by a new observation
//!   (reset in place; the incoming stamp is the job's exact `now`), or
//!   consulted by a predict (masked to `None` against the caller's
//!   job-time `now`);
//! * eagerly, by [`Shard::sweep_expired`], which *removes* expired
//!   slots to reclaim memory. The sweep walks each job's domain list
//!   against that job's **watermark** — the highest stamp the shard has
//!   applied for the job ([`Shard::job_now`]), a conservative lower
//!   bound of the job's global clock that callers can tighten via
//!   [`Shard::fold_job_now`] (the engine's explicit-sweep path snapshots
//!   its per-job clocks and folds them in, so fully idle jobs still get
//!   reclaimed).
//!
//! Because a swept stream would have been reset at its next touch
//! anyway (the job-time gap only grows), sweep timing can never change
//! a prediction or a scoring counter (hits/misses/abstentions/churn/
//! events) — sweeps are pure memory reclamation, and sweeping against a
//! *lower bound* of job time only delays reclamation, never mis-expires.
//! The reclamation metrics themselves (`evicted`, `resident_streams`)
//! do reflect sweep progress: a stream that expires and is never
//! touched again is counted evicted (and released) only once some sweep
//! reaches it. The invariant holds whenever the shard's inputs are
//! stamp-monotone **per job** (each job's stamps arrive no smaller than
//! that job's watermark), which is guaranteed for any single client of
//! the persistent engine — and is what lets persistent workers sweep
//! only the shards that happen to receive traffic while staying
//! bit-identical to the sequential reference
//! (property-tested in `tests/persistence.rs`). Concurrent clients
//! racing on one job relax this to arrival order; see the
//! [`persistent`](crate::persistent) docs. (Per-job stamp-monotone
//! inputs are also what keep the LRU list's O(1) touch fast path hot; a
//! racy out-of-order stamp merely pays a short sorted re-insertion in
//! its own domain.)

use crate::config::EnsembleConfig;
use crate::metrics::{JobMetrics, ModelStats, ShardMetrics};
use crate::snapshot::{EnsembleStreamState, MemberState, ShardState, StreamState};
use crate::stream_table::{SlotId, StreamTable};
use crate::telemetry::ShardTelemetry;
use crate::types::{JobId, Observation, Query, RankId, StreamKey, StreamKind};
use fxhash::FxHashMap;
use mpp_core::dpd::{DpdConfig, DpdPredictor};
use mpp_core::predictors::{Model, Predictor, PredictorKind, WordCursor};
use mpp_core::stream::SymbolMap;
use mpp_telemetry::{TelemetryConfig, TelemetrySnapshot};
use std::time::Instant;

/// The single definition of the TTL expiry rule: a stream whose last
/// observation is more than `ttl` time-domain events before `now` —
/// both in the owning job's time base — is logically evicted. The lazy
/// reset in [`Shard::observe_at`], the predict-time masking, and the
/// sweep's pop condition must stay exact complements of each other —
/// which is why they all call this.
///
/// **Out-of-order stamps are a contract, not an accident:** the age is
/// `now.saturating_sub(last_seen)`, so a `now` *behind* `last_seen` —
/// possible only when concurrent clients race stamp allocation against
/// a query — saturates to age 0 and reports the stream **fresh**. That
/// is the intended resolution: the stream demonstrably has an
/// observation at `last_seen`, so a stale reader must never expire it;
/// under racing writers the freshest information wins. A `u64`
/// subtraction that wrapped would instead report an astronomically old
/// stream and evict live state. Pinned by the `racy_stamps_*` proptest
/// in `tests/stream_table.rs`.
#[inline]
pub(crate) fn is_expired(ttl: Option<u64>, last_seen: u64, now: u64) -> bool {
    matches!(ttl, Some(t) if now.saturating_sub(last_seen) > t)
}

/// Orders LRU eviction candidates oldest-first — by last-observed
/// stamp, ties broken by `(job, rank, kind)` so every shard count
/// picks identical victims — and keeps the first `n`. The single
/// definition of the LRU victim order, shared by [`Shard::lru_oldest`]
/// and `EngineClient::evict_lru`. The shard feeds
/// it a bounded [`StreamTable::oldest_window`] rather than the whole
/// resident set; because the window provably contains every entry that
/// can rank among the first `n`, the selected victims are identical.
///
/// Under per-job time domains (TTL configured), stamps of different
/// jobs count different tenants' events, so the forced-eviction order
/// compares **job-local ages**: the victim is the stream least recently
/// touched *in its own job's time*, with the deterministic key
/// tie-break arbitrating across jobs. With one shared clock (no TTL)
/// this is exactly the historical global LRU order.
pub(crate) fn select_lru_victims(
    mut candidates: Vec<(u64, StreamKey)>,
    n: usize,
) -> Vec<(u64, StreamKey)> {
    candidates.sort_unstable_by_key(|&(seen, key)| (seen, key.job, key.rank, key.kind.index()));
    candidates.truncate(n);
    candidates
}

/// One challenger of a stream's ensemble: a roster predictor observing
/// the **raw** symbol stream (challengers like the stride predictor
/// extrapolate values that were never interned, so the dense-id domain
/// would be wrong for them) plus its standing `+1` forecast.
#[derive(Debug, Clone)]
pub(crate) struct ChallengerSlot {
    model: Model,
    /// Standing `+1` forecast in raw symbol space.
    pending: Option<u64>,
}

/// Per-stream champion/challenger state: who serves, the in-flight
/// scoring window, and the challenger bank. Boxed inside the slot so
/// DPD-only engines pay one `None` niche, not the roster's footprint.
#[derive(Debug, Clone)]
pub(crate) struct SlotEnsemble {
    /// Serving member index: 0 = primary DPD, `i > 0` = challenger
    /// `i - 1`. Swaps only at window boundaries, with hysteresis.
    champion: u32,
    /// Observations scored in the current window.
    window_seen: u32,
    /// Per-member hits in the current window (index 0 = primary).
    window_hits: Vec<u32>,
    challengers: Vec<ChallengerSlot>,
}

impl SlotEnsemble {
    fn new(ens: &EnsembleConfig, cfg: &DpdConfig) -> Self {
        SlotEnsemble {
            champion: 0,
            window_seen: 0,
            window_hits: vec![0; ens.roster_len()],
            challengers: ens
                .challengers
                .iter()
                .map(|&k| ChallengerSlot {
                    model: Model::build(k, cfg),
                    pending: None,
                })
                .collect(),
        }
    }

    /// [`PredictorKind::tag`] of member `m` (0 = the primary DPD).
    fn member_tag(&self, m: usize) -> u8 {
        if m == 0 {
            PredictorKind::Dpd.tag()
        } else {
            self.challengers[m - 1].model.kind().tag()
        }
    }
}

/// Predictor, interner and score-keeping state for one stream. The
/// recency stamp (`last_seen`) lives in the owning [`StreamTable`],
/// which needs it for LRU order; the slot carries the prediction state
/// plus a dense index into the shard's per-job rollups.
#[derive(Debug, Clone)]
pub(crate) struct StreamSlot {
    interner: SymbolMap,
    predictor: DpdPredictor,
    /// `+1` forecast (dense id) standing from the previous observation,
    /// scored against the next arrival. `None` while unlocked.
    pending_next: Option<u64>,
    /// Period seen after the previous observation, for churn counting.
    last_period: Option<usize>,
    /// Index of this stream's job in the shard's rollup vector —
    /// per-event job accounting without hashing the job id.
    job_idx: u32,
    /// Champion/challenger state; `None` on DPD-only engines, which
    /// keeps the default hot path byte-for-byte what it was.
    ensemble: Option<Box<SlotEnsemble>>,
}

impl StreamSlot {
    fn new(cfg: &DpdConfig, ens: &EnsembleConfig, job_idx: u32) -> Self {
        StreamSlot {
            interner: SymbolMap::new(),
            predictor: DpdPredictor::new(cfg.clone()),
            pending_next: None,
            last_period: None,
            job_idx,
            ensemble: ens.enabled().then(|| Box::new(SlotEnsemble::new(ens, cfg))),
        }
    }

    /// Ingests one raw symbol, updating the shard's and the owning
    /// job's hit/miss/churn counters in lockstep. With an ensemble,
    /// every member is scored against its standing forecast (the
    /// serving champion's outcome drives the legacy hit/miss counters)
    /// and the champion may swap at a window boundary. Returns whether
    /// the detected period changed, plus `(from_tag, to_tag)` if the
    /// champion swapped (the caller's flight-recorder hooks).
    #[inline]
    fn observe(
        &mut self,
        raw: u64,
        metrics: &mut ShardMetrics,
        job: &mut JobMetrics,
        ens_cfg: &EnsembleConfig,
        shard_models: &mut [ModelStats],
        job_models: &mut [ModelStats],
    ) -> (bool, Option<(u8, u8)>) {
        let id = u64::from(self.interner.intern(raw));
        let mut swap = None;
        if let Some(ens) = self.ensemble.as_deref_mut() {
            // Score every member on this arrival. Member 0 (the primary
            // DPD) forecasts in dense-id space; challengers in raw
            // space. Identical comparisons either way — interning is
            // injective — so the scoreboard is domain-agnostic.
            for m in 0..ens.window_hits.len() {
                let (pending, expected) = if m == 0 {
                    (self.pending_next, id)
                } else {
                    (ens.challengers[m - 1].pending, raw)
                };
                let is_champion = m as u32 == ens.champion;
                let (sm, jm) = (&mut shard_models[m], &mut job_models[m]);
                match pending {
                    Some(p) if p == expected => {
                        sm.hits += 1;
                        jm.hits += 1;
                        ens.window_hits[m] += 1;
                        if is_champion {
                            metrics.hits += 1;
                            job.hits += 1;
                        }
                    }
                    Some(_) => {
                        sm.misses += 1;
                        jm.misses += 1;
                        if is_champion {
                            metrics.misses += 1;
                            job.misses += 1;
                        }
                    }
                    None => {
                        sm.abstentions += 1;
                        jm.abstentions += 1;
                        if is_champion {
                            metrics.abstentions += 1;
                            job.abstentions += 1;
                        }
                    }
                }
                if is_champion {
                    sm.champion_events += 1;
                    jm.champion_events += 1;
                }
            }
            ens.window_seen += 1;
            for c in &mut ens.challengers {
                c.model.observe(raw);
                c.pending = c.model.predict(1);
            }
            // Window boundary: promote the strict-argmax member (ties
            // keep the lowest index) only if it leads the incumbent by
            // the hysteresis margin — sustained lead, not noise.
            if ens.window_seen >= ens_cfg.window {
                let champ = ens.champion as usize;
                let mut best = 0usize;
                for i in 1..ens.window_hits.len() {
                    if ens.window_hits[i] > ens.window_hits[best] {
                        best = i;
                    }
                }
                if best != champ
                    && ens.window_hits[best] >= ens.window_hits[champ] + ens_cfg.min_lead
                {
                    let from = ens.member_tag(champ);
                    let to = ens.member_tag(best);
                    ens.champion = best as u32;
                    shard_models[best].swaps_in += 1;
                    job_models[best].swaps_in += 1;
                    swap = Some((from, to));
                }
                ens.window_seen = 0;
                ens.window_hits.iter_mut().for_each(|h| *h = 0);
            }
        } else {
            match self.pending_next {
                Some(p) if p == id => {
                    metrics.hits += 1;
                    job.hits += 1;
                }
                Some(_) => {
                    metrics.misses += 1;
                    job.misses += 1;
                }
                None => {
                    metrics.abstentions += 1;
                    job.abstentions += 1;
                }
            }
        }
        self.predictor.observe(id);
        let period = self.predictor.period();
        let churned = period != self.last_period;
        if churned {
            metrics.period_churn += 1;
            job.period_churn += 1;
            self.last_period = period;
        }
        self.pending_next = self.predictor.predict(1);
        metrics.events_ingested += 1;
        job.events_ingested += 1;
        (churned, swap)
    }

    /// Predicts the raw symbol `horizon` steps ahead — served by the
    /// stream's champion (challengers already predict in raw space).
    #[inline]
    fn predict(&self, horizon: usize) -> Option<u64> {
        if let Some(ens) = self.ensemble.as_deref() {
            if ens.champion > 0 {
                return ens.challengers[ens.champion as usize - 1]
                    .model
                    .predict(horizon);
            }
        }
        let id = self.predictor.predict(horizon)?;
        Some(self.raw_of(id))
    }

    /// Predicts the next `horizons` raw symbols into `out` (cleared and
    /// refilled; capacity reused) — the forecast path's allocation-free
    /// bulk variant, built on [`DpdPredictor::predict_next_into`].
    /// Served by the champion, like [`StreamSlot::predict`].
    fn predict_next_into(&self, horizons: usize, out: &mut Vec<Option<u64>>) {
        if let Some(ens) = self.ensemble.as_deref() {
            if ens.champion > 0 {
                ens.challengers[ens.champion as usize - 1]
                    .model
                    .predict_next_into(horizons, out);
                return;
            }
        }
        self.predictor.predict_next_into(horizons, out);
        for v in out.iter_mut() {
            *v = v.map(|id| self.raw_of(id));
        }
    }

    /// Maps a predicted dense id back to its raw symbol.
    #[inline]
    fn raw_of(&self, id: u64) -> u64 {
        self.interner
            .symbol(u32::try_from(id).expect("dense ids fit u32"))
            .expect("predicted id was interned")
    }

    fn period(&self) -> Option<usize> {
        self.predictor.period()
    }

    fn confidence(&self) -> Option<f64> {
        self.predictor.confidence()
    }
}

/// A single-threaded predictor bank for one hash partition of ranks.
#[derive(Debug)]
pub struct Shard {
    cfg: DpdConfig,
    /// Champion/challenger roster + selection policy. The default
    /// (no challengers) keeps every slot ensemble-free.
    ensemble: EnsembleConfig,
    /// TTL in events of the owning job's clock; `None` disables expiry.
    ttl: Option<u64>,
    /// The slab-backed stream table (see the [module docs](self)).
    table: StreamTable<StreamSlot>,
    metrics: ShardMetrics,
    /// Per-job scoring rollups, in first-ingest order (sorted on read).
    /// Entries outlive their job's streams (history survives eviction);
    /// each entry's `resident_streams` is maintained incrementally on
    /// slot creation/removal, so metrics reads never scan the slots.
    jobs: Vec<(JobId, JobMetrics)>,
    /// Job id → index into `jobs`, consulted only off the per-event
    /// path (slot creation, predict/forecast rollups).
    job_index: FxHashMap<JobId, u32>,
    /// Shard-level per-model counters, positional over the roster
    /// (index 0 = primary DPD). Empty — and never allocated — when the
    /// ensemble is off.
    model_stats: Vec<ModelStats>,
    /// Per-job per-model counters, parallel to `jobs` (inner vectors
    /// empty when the ensemble is off).
    job_models: Vec<Vec<ModelStats>>,
    /// Per-job time watermarks, parallel to `jobs`: the highest stamp
    /// this shard has applied for each job, tightened further by
    /// [`Shard::fold_job_now`]. With a TTL configured this is the
    /// shard's (conservative) view of each job's current time — the
    /// sweep's `now` (see the [module docs](self)).
    job_clocks: Vec<u64>,
    /// Highest stamp this shard has processed across all jobs (used to
    /// stamp untimed `observe` calls from standalone/unit-test use and
    /// to throttle sweeps).
    clock: u64,
    /// Engine time of the last sweep (throttles [`Shard::maybe_sweep`]).
    last_sweep: u64,
    /// Forecast scratch columns (sender / size), reused across
    /// [`Shard::forecast_at`] calls.
    fc_sender: Vec<Option<u64>>,
    fc_size: Vec<Option<u64>>,
    /// Latency histograms + flight recorder; `None` (the default) keeps
    /// the hot path free of clock reads. Boxed to keep the disabled
    /// shard small.
    telemetry: Option<Box<ShardTelemetry>>,
}

impl Shard {
    /// Creates an empty shard whose predictors use `cfg`, with no TTL.
    pub fn new(cfg: DpdConfig) -> Self {
        Self::with_ttl(cfg, None)
    }

    /// Creates an empty shard with an idle-stream TTL (in engine-time
    /// events; see the [module docs](self) for the expiry rule).
    pub fn with_ttl(cfg: DpdConfig, ttl: Option<u64>) -> Self {
        Self::with_ensemble(cfg, ttl, EnsembleConfig::default())
    }

    /// Creates an empty shard with an idle-stream TTL and a
    /// champion/challenger ensemble. With no challengers this is
    /// exactly [`Shard::with_ttl`]: slots stay ensemble-free and no
    /// per-model state is allocated.
    pub fn with_ensemble(cfg: DpdConfig, ttl: Option<u64>, ensemble: EnsembleConfig) -> Self {
        let model_stats = if ensemble.enabled() {
            vec![ModelStats::default(); ensemble.roster_len()]
        } else {
            Vec::new()
        };
        Shard {
            cfg,
            ensemble,
            ttl,
            table: StreamTable::new(),
            metrics: ShardMetrics::default(),
            jobs: Vec::new(),
            job_index: FxHashMap::default(),
            model_stats,
            job_models: Vec::new(),
            job_clocks: Vec::new(),
            clock: 0,
            last_sweep: 0,
            fc_sender: Vec::new(),
            fc_size: Vec::new(),
            telemetry: None,
        }
    }

    /// Attaches telemetry state (histograms + flight ring) to this
    /// shard. A no-op when `cfg.enabled` is false.
    pub fn enable_telemetry(&mut self, cfg: &TelemetryConfig, shard_id: u32) {
        if cfg.enabled {
            self.telemetry = Some(Box::new(ShardTelemetry::new(cfg, shard_id)));
        }
    }

    /// The shard's telemetry state, if enabled (recording handles take
    /// `&self`; used by the persistent worker's queue-wait hook).
    #[inline]
    pub(crate) fn telemetry(&self) -> Option<&ShardTelemetry> {
        self.telemetry.as_deref()
    }

    /// The shard's exportable telemetry snapshot (histograms, flight
    /// ring, counter totals), or `None` when telemetry is disabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry
            .as_ref()
            .map(|t| t.snapshot(&self.metrics(), &self.ensemble, &self.model_stats))
    }

    /// Whether `last_seen` has expired as of engine time `now`.
    #[inline]
    fn expired(&self, last_seen: u64, now: u64) -> bool {
        is_expired(self.ttl, last_seen, now)
    }

    /// Index of `job`'s rollup entry, creating it on first ingest.
    #[inline]
    fn job_entry(&mut self, job: JobId) -> u32 {
        if let Some(&i) = self.job_index.get(&job) {
            return i;
        }
        let i = u32::try_from(self.jobs.len()).expect("job count fits u32");
        self.job_index.insert(job, i);
        self.jobs.push((job, JobMetrics::default()));
        // `vec![x; 0]` when the ensemble is off: no allocation.
        self.job_models
            .push(vec![ModelStats::default(); self.model_stats.len()]);
        self.job_clocks.push(0);
        i
    }

    /// The shard's watermark of `job`'s current time: the highest stamp
    /// applied for the job, tightened by [`Shard::fold_job_now`]. 0 for
    /// a job this shard has never ingested (such a job has no streams
    /// here, so every lookup misses regardless of the time used).
    #[inline]
    pub fn job_now(&self, job: JobId) -> u64 {
        self.job_index
            .get(&job)
            .map_or(0, |&i| self.job_clocks[i as usize])
    }

    /// Advances `job`'s watermark to at least `now` — the hook for a
    /// caller that knows the job's clock has moved past what this
    /// shard's own traffic shows (the engine's explicit-sweep path).
    /// Monotone (never moves a watermark backwards) and a no-op for
    /// jobs this shard has never ingested; always safe because the
    /// caller only passes true job-clock readings, and reclamation
    /// against any lower bound of job time is prediction-invisible
    /// (see the [module docs](self)).
    #[inline]
    pub fn fold_job_now(&mut self, job: JobId, now: u64) {
        if let Some(&i) = self.job_index.get(&job) {
            let wm = &mut self.job_clocks[i as usize];
            *wm = (*wm).max(now);
        }
    }

    /// The slot serving `key`, interning it (and its job) on first
    /// sight. `at` stamps a freshly created slot; existing slots keep
    /// their stamp until [`Shard::observe_slot`] touches them.
    #[inline]
    fn slot_for(&mut self, key: StreamKey, at: u64) -> SlotId {
        if let Some(id) = self.table.get(key) {
            return id;
        }
        let job_idx = self.job_entry(key.job);
        self.jobs[job_idx as usize].1.resident_streams += 1;
        self.table
            .insert(key, at, StreamSlot::new(&self.cfg, &self.ensemble, job_idx))
    }

    /// The per-event ingest step shared by every observe path: lazy TTL
    /// reset, scoring, and the O(1) LRU touch.
    #[inline]
    fn observe_slot(&mut self, id: SlotId, raw: u64, at: u64) {
        let seen = self.table.last_seen(id);
        // Lazy TTL: an expired slot restarts cold, exactly as if a
        // sweep had removed it and this observation re-created it.
        if seen > 0 && is_expired(self.ttl, seen, at) {
            let slot = self.table.payload_mut(id);
            let job_idx = slot.job_idx;
            *slot = StreamSlot::new(&self.cfg, &self.ensemble, job_idx);
            self.metrics.evicted += 1;
            self.jobs[job_idx as usize].1.evicted += 1;
            if let Some(tel) = self.telemetry.as_deref_mut() {
                let key = self.table.key_of(id);
                tel.note_eviction(at, key.job, key.rank, seen);
            }
        }
        let slot = self.table.payload_mut(id);
        let job_idx = slot.job_idx as usize;
        let wm = &mut self.job_clocks[job_idx];
        *wm = (*wm).max(at);
        let job = &mut self.jobs[job_idx].1;
        let (churned, swap) = slot.observe(
            raw,
            &mut self.metrics,
            job,
            &self.ensemble,
            &mut self.model_stats,
            &mut self.job_models[job_idx],
        );
        if churned {
            // Off the steady-state path: churn means a lock transition.
            if let Some(tel) = self.telemetry.as_deref_mut() {
                let key = self.table.key_of(id);
                let ended = self.table.payload(id).predictor.ended_run_len();
                tel.note_churn(at, key.job, key.rank, ended);
            }
        }
        if let Some((from, to)) = swap {
            if let Some(tel) = self.telemetry.as_deref_mut() {
                let key = self.table.key_of(id);
                tel.note_champion_swap(at, key, from, to);
            }
        }
        self.table.touch(id, at);
    }

    /// Ingests one observation stamped with engine time `at`.
    #[inline]
    pub fn observe_at(&mut self, obs: Observation, at: u64) {
        self.clock = self.clock.max(at);
        let id = self.slot_for(obs.key, at);
        self.observe_slot(id, obs.value, at);
    }

    /// Ingests one observation, stamping it one tick after the latest
    /// this shard has seen (standalone use; engines stamp globally).
    #[inline]
    pub fn observe(&mut self, obs: Observation) {
        self.observe_at(obs, self.clock + 1);
    }

    /// The batch ingest loop, shared by the persistent worker's observe
    /// legs and [`Shard::observe_all_at`]: records the leg's size in the
    /// `max_batch_depth` high-water mark (load-balance signal across
    /// shards), times the leg when telemetry is on, and applies each
    /// `(observation, stamp)` pair in order with [`Shard::observe_at`].
    pub(crate) fn observe_leg(
        &mut self,
        events: impl ExactSizeIterator<Item = (Observation, u64)>,
    ) {
        let n = events.len();
        self.metrics.max_batch_depth = self.metrics.max_batch_depth.max(n as u64);
        let t0 = self.telemetry.as_ref().map(|_| Instant::now());
        for (obs, at) in events {
            self.observe_at(obs, at);
        }
        if let (Some(t0), Some(tel)) = (t0, self.telemetry.as_deref()) {
            tel.note_batch(t0.elapsed().as_nanos() as u64, n);
        }
    }

    /// Ingests every event of `batch`, in order, stamped from
    /// `base + 1`, as one leg: the leg's size is recorded in
    /// `max_batch_depth` and, with telemetry on, the leg is timed —
    /// the same loop a persistent worker runs per observe leg.
    pub fn observe_all_at(&mut self, batch: &[Observation], base: u64) {
        self.observe_leg(
            batch
                .iter()
                .enumerate()
                .map(|(i, obs)| (*obs, base + i as u64 + 1)),
        );
    }

    /// Serves one query at engine time `now`. Returns `None` for
    /// unknown or expired streams, horizon 0, or streams without a
    /// locked period. Counts toward `predictions_served` (the forecast
    /// path has its own counters — see [`crate::metrics`]).
    #[inline]
    pub fn predict_at(&mut self, q: Query, now: u64) -> Option<u64> {
        self.metrics.predictions_served += 1;
        // Only jobs that have ingested get a rollup: materialising an
        // entry per *queried* job would let wrong/stale job ids grow
        // the map without bound and report phantom tenants.
        if let Some(&ji) = self.job_index.get(&q.key.job) {
            self.jobs[ji as usize].1.predictions_served += 1;
        }
        let id = self.table.get(q.key)?;
        if self.expired(self.table.last_seen(id), now) {
            return None;
        }
        self.table.payload(id).predict(q.horizon as usize)
    }

    /// Serves one query at the queried job's own current time
    /// (standalone use; engines pass the job-time `now` explicitly).
    #[inline]
    pub fn predict(&mut self, q: Query) -> Option<u64> {
        let now = self.job_now(q.key.job);
        self.predict_at(q, now)
    }

    /// Fills `out` with one stream's `+1..=+depth` forecasts (all
    /// `None` for unknown/expired streams) without touching any
    /// metric counter — the internal predict path forecasts ride on.
    fn predict_stream_into(
        &self,
        key: StreamKey,
        depth: usize,
        now: u64,
        out: &mut Vec<Option<u64>>,
    ) {
        out.clear();
        match self.table.get(key) {
            Some(id) if !self.expired(self.table.last_seen(id), now) => {
                self.table.payload(id).predict_next_into(depth, out);
            }
            _ => out.resize(depth, None),
        }
    }

    /// The next `depth` forecast (sender, size) pairs for `rank` of
    /// `job` — the shape the runtime policies (§2 of the paper)
    /// consume. Both attribute streams of a `(job, rank)` live in the
    /// same shard by construction.
    ///
    /// Metrics: one call counts as **one** served forecast
    /// (`forecasts_served`) plus `2 × depth` per-stream forecast
    /// predictions (`forecast_predictions`); it does **not** inflate
    /// `predictions_served`, which counts explicit predict queries
    /// (see [`crate::metrics`]). Costs two fxhash probes and zero
    /// allocations in steady state (scratch columns and `out` reuse
    /// their capacity).
    pub fn forecast_at(
        &mut self,
        job: JobId,
        rank: RankId,
        depth: usize,
        now: u64,
        out: &mut Vec<(Option<u64>, Option<u64>)>,
    ) {
        let t0 = self.telemetry.as_ref().map(|_| Instant::now());
        out.clear();
        self.metrics.forecasts_served += 1;
        self.metrics.forecast_predictions += 2 * depth as u64;
        if let Some(&ji) = self.job_index.get(&job) {
            let jm = &mut self.jobs[ji as usize].1;
            jm.forecasts_served += 1;
            jm.forecast_predictions += 2 * depth as u64;
        }
        let mut sender_col = std::mem::take(&mut self.fc_sender);
        let mut size_col = std::mem::take(&mut self.fc_size);
        self.predict_stream_into(
            StreamKey::for_job(job, rank, StreamKind::Sender),
            depth,
            now,
            &mut sender_col,
        );
        self.predict_stream_into(
            StreamKey::for_job(job, rank, StreamKind::Size),
            depth,
            now,
            &mut size_col,
        );
        out.reserve(depth);
        out.extend(sender_col.iter().copied().zip(size_col.iter().copied()));
        self.fc_sender = sender_col;
        self.fc_size = size_col;
        if let (Some(t0), Some(tel)) = (t0, self.telemetry.as_deref()) {
            tel.note_forecast(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Detected period of a stream (`None` if unknown, unlocked, or
    /// expired at engine time `now`).
    pub fn period_of_at(&self, key: StreamKey, now: u64) -> Option<usize> {
        let id = self.table.get(key)?;
        if self.expired(self.table.last_seen(id), now) {
            return None;
        }
        self.table.payload(id).period()
    }

    /// Detected period at the key's job time (standalone use).
    pub fn period_of(&self, key: StreamKey) -> Option<usize> {
        self.period_of_at(key, self.job_now(key.job))
    }

    /// Detector confidence of a stream's lock (expiry-masked like
    /// [`Shard::period_of_at`]).
    pub fn confidence_of_at(&self, key: StreamKey, now: u64) -> Option<f64> {
        let id = self.table.get(key)?;
        if self.expired(self.table.last_seen(id), now) {
            return None;
        }
        self.table.payload(id).confidence()
    }

    /// Detector confidence at the key's job time.
    pub fn confidence_of(&self, key: StreamKey) -> Option<f64> {
        self.confidence_of_at(key, self.job_now(key.job))
    }

    /// Removes every slot whose stream has expired in its own job's
    /// time, returning how many were reclaimed. Pure memory
    /// reclamation: cannot change any later prediction or counter (see
    /// the [module docs](self)). Each job's domain list is sorted by
    /// `last_seen`, so the sweep pops expired slots off each domain
    /// head — comparing against **that job's watermark**
    /// ([`Shard::job_now`]) — and stops at the first live one:
    /// O(domains + reclaimed), not O(resident). `now` is the shard's
    /// engine-scale clock, used only to reset the sweep throttle and
    /// stamp telemetry events; callers with fresher job clocks fold
    /// them in first ([`Shard::fold_job_now`]).
    pub fn sweep_expired(&mut self, now: u64) -> usize {
        let ttl = self.ttl;
        if ttl.is_none() {
            return 0;
        }
        let mut removed = 0usize;
        for d in 0..self.table.domain_count() {
            let job_now = self.job_now(self.table.domain_job(d));
            while let Some(id) = self.table.domain_oldest(d) {
                let seen = self.table.last_seen(id);
                if !is_expired(ttl, seen, job_now) {
                    break;
                }
                let (key, slot) = self.table.remove(id);
                let jm = &mut self.jobs[slot.job_idx as usize].1;
                jm.evicted += 1;
                jm.resident_streams -= 1;
                removed += 1;
                if let Some(tel) = self.telemetry.as_deref_mut() {
                    tel.note_eviction(now, key.job, key.rank, seen);
                }
            }
        }
        self.metrics.evicted += removed as u64;
        self.last_sweep = now;
        removed
    }

    /// Sweeps only when the clock has advanced at least half a TTL
    /// since the last sweep — the per-batch reclamation hook. Safe at
    /// any frequency by the sweep-timing invariance (module docs); the
    /// head-pop sweep is already O(reclaimed), so the throttle now only
    /// saves the per-batch call overhead, at the cost of expired slots
    /// lingering at most an extra ttl/2 events.
    pub fn maybe_sweep(&mut self, now: u64) -> usize {
        match self.ttl {
            Some(t) if now.saturating_sub(self.last_sweep) >= (t / 2).max(1) => {
                self.sweep_expired(now)
            }
            _ => 0,
        }
    }

    /// Forcibly evicts one stream, returning whether it was resident.
    /// The stream restarts cold if observed again.
    pub fn evict_stream(&mut self, key: StreamKey) -> bool {
        let Some(id) = self.table.get(key) else {
            return false;
        };
        let seen = self.table.last_seen(id);
        let (_, slot) = self.table.remove(id);
        self.metrics.evicted += 1;
        let jm = &mut self.jobs[slot.job_idx as usize].1;
        jm.evicted += 1;
        jm.resident_streams -= 1;
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.note_eviction(self.clock, key.job, key.rank, seen);
        }
        true
    }

    /// Forcibly evicts every resident stream of `job`, returning how
    /// many were removed. The job's rollup counters survive (only its
    /// predictor state is reclaimed); returning streams restart cold.
    pub fn evict_job(&mut self, job: JobId) -> usize {
        let jobs = &mut self.jobs;
        let mut tel = self.telemetry.as_deref_mut();
        let clock = self.clock;
        let removed = self.table.retain(|key, slot| {
            let keep = key.job != job;
            if !keep {
                jobs[slot.job_idx as usize].1.resident_streams -= 1;
                if let Some(t) = tel.as_deref_mut() {
                    t.note_eviction(clock, key.job, key.rank, 0);
                }
            }
            keep
        });
        self.metrics.evicted += removed as u64;
        if removed > 0 {
            // A resident stream implies its job has a rollup; never
            // materialise one for a job this shard has not ingested.
            let ji = self.job_index[&job] as usize;
            self.jobs[ji].1.evicted += removed as u64;
        }
        removed
    }

    /// Jobs with at least one resident stream, ascending. Reads the
    /// maintained per-job resident counters — O(jobs), never a scan of
    /// the stream table.
    pub fn resident_jobs(&self) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, m)| m.resident_streams > 0)
            .map(|&(job, _)| job)
            .collect();
        jobs.sort_unstable();
        jobs
    }

    /// Per-job scoring rollups, ascending by job id. Jobs whose streams
    /// were all evicted keep their history here; `resident_streams` is
    /// maintained incrementally, so this is O(jobs log jobs) regardless
    /// of the resident-stream count.
    pub fn job_metrics(&self) -> Vec<(JobId, JobMetrics)> {
        let mut out = self.jobs.clone();
        out.sort_unstable_by_key(|&(job, _)| job);
        out
    }

    /// The `n` least-recently-observed resident streams, oldest first
    /// (ties broken by key for determinism) — the LRU victim order.
    /// Reads a bounded window off the recency list (O(n + ties)); the
    /// victims are identical to sorting the whole resident set.
    pub fn lru_oldest(&self, n: usize) -> Vec<(u64, StreamKey)> {
        select_lru_victims(self.table.oldest_window(n), n)
    }

    /// Forcibly evicts the `n` least-recently-observed streams,
    /// returning how many were removed. O(n + ties) in the resident
    /// set: victim selection reads the LRU window and each eviction is
    /// a constant-time slab removal.
    pub fn evict_lru(&mut self, n: usize) -> usize {
        let victims = self.lru_oldest(n);
        for (_, key) in &victims {
            self.evict_stream(*key);
        }
        victims.len()
    }

    /// Number of resident streams (including expired-but-unswept ones).
    pub fn stream_count(&self) -> usize {
        self.table.len()
    }

    /// The configured TTL, if any.
    pub fn ttl(&self) -> Option<u64> {
        self.ttl
    }

    /// The champion/challenger configuration this shard runs.
    pub fn ensemble(&self) -> &EnsembleConfig {
        &self.ensemble
    }

    /// Shard-level per-model counters, positional over the roster
    /// (index 0 = primary DPD). Empty when the ensemble is off.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        self.model_stats.clone()
    }

    /// Per-job per-model counters, ascending by job id (the per-model
    /// analogue of [`Shard::job_metrics`]; inner vectors empty when the
    /// ensemble is off).
    pub fn job_model_stats(&self) -> Vec<(JobId, Vec<ModelStats>)> {
        let mut out: Vec<(JobId, Vec<ModelStats>)> = self
            .jobs
            .iter()
            .zip(&self.job_models)
            .map(|(&(job, _), models)| (job, models.clone()))
            .collect();
        out.sort_unstable_by_key(|&(job, _)| job);
        out
    }

    /// Counter snapshot (resident stream count refreshed on read).
    pub fn metrics(&self) -> ShardMetrics {
        let mut m = self.metrics;
        m.resident_streams = self.table.len() as u64;
        m
    }

    /// Drops all stream state, keeping configuration and counters.
    pub fn clear_streams(&mut self) {
        self.table.clear();
        for (_, m) in &mut self.jobs {
            m.resident_streams = 0;
        }
    }

    // --- snapshot / restore / migration (see [`crate::snapshot`]) ---

    /// Serializes one stream's complete state. Symbols are dumped in
    /// dense-id order so re-interning them in order rebuilds the exact
    /// `raw → id` mapping; the predictor exports through
    /// [`DpdPredictor::export_state`].
    fn export_stream(&self, id: SlotId) -> StreamState {
        let slot = self.table.payload(id);
        let symbols = (0..u32::try_from(slot.interner.len()).expect("dense ids fit u32"))
            .map(|i| slot.interner.symbol(i).expect("dense ids are contiguous"))
            .collect();
        StreamState {
            key: self.table.key_of(id),
            last_seen: self.table.last_seen(id),
            symbols,
            predictor: slot.predictor.export_state(),
            pending_next: slot.pending_next,
            last_period: slot.last_period.map(|p| p as u64),
            ensemble: slot.ensemble.as_deref().map(|ens| EnsembleStreamState {
                champion: ens.champion,
                window_seen: ens.window_seen,
                window_hits: ens.window_hits.clone(),
                members: ens
                    .challengers
                    .iter()
                    .map(|c| {
                        let mut words = Vec::new();
                        c.model.export_words(&mut words);
                        MemberState {
                            kind_tag: c.model.kind().tag(),
                            pending: c.pending,
                            words,
                        }
                    })
                    .collect(),
            }),
        }
    }

    /// Rebuilds a slot from its serialized state, bit-identical to the
    /// one [`Shard::export_stream`] read. The ensemble members hydrate
    /// through their word codecs. Every restore path decodes through
    /// `decode_engine_for` or `decode_job_for`, which checked the
    /// record against the roster and hydrated each member once, so
    /// nothing here can fail.
    fn rebuild_slot(&self, s: &StreamState, job_idx: u32) -> StreamSlot {
        let mut interner = SymbolMap::new();
        for &sym in &s.symbols {
            interner.intern(sym);
        }
        let ensemble = s.ensemble.as_ref().map(|es| {
            let mut ens = SlotEnsemble::new(&self.ensemble, &self.cfg);
            debug_assert_eq!(es.members.len(), ens.challengers.len());
            ens.champion = es.champion;
            ens.window_seen = es.window_seen;
            ens.window_hits.clone_from(&es.window_hits);
            for (c, m) in ens.challengers.iter_mut().zip(&es.members) {
                debug_assert_eq!(c.model.kind().tag(), m.kind_tag);
                let mut cur = WordCursor::new(&m.words);
                c.model
                    .hydrate_words(&mut cur)
                    .expect("checksummed member state hydrates");
                cur.finish().expect("member state fully consumed");
                c.pending = m.pending;
            }
            Box::new(ens)
        });
        StreamSlot {
            interner,
            predictor: DpdPredictor::from_state(self.cfg.clone(), &s.predictor),
            pending_next: s.pending_next,
            last_period: s.last_period.map(|p| p as usize),
            job_idx,
            ensemble,
        }
    }

    /// Serializes the shard's complete predictive state: counters,
    /// clocks, per-job rollups with their watermarks (in first-ingest
    /// order — the order the rollup vector and the table's domains
    /// intern in), and every resident stream in per-domain LRU order.
    pub(crate) fn export_state(&self) -> ShardState {
        let mut streams = Vec::with_capacity(self.table.len());
        for d in 0..self.table.domain_count() {
            for id in self.table.domain_iter(d) {
                streams.push(self.export_stream(id));
            }
        }
        ShardState {
            metrics: self.metrics(),
            clock: self.clock,
            last_sweep: self.last_sweep,
            jobs: self
                .jobs
                .iter()
                .zip(&self.job_clocks)
                .map(|(&(job, m), &wm)| (job, m, wm))
                .collect(),
            model_stats: self.model_stats.clone(),
            job_models: self.job_models.clone(),
            streams,
        }
    }

    /// Replaces the shard's predictive state with `st`, keeping its
    /// configuration, TTL, and telemetry. Jobs (and their table
    /// domains) are re-interned in serialized order *before* streams
    /// are inserted, reproducing the source's domain order — the
    /// cross-domain LRU tie-break — and every slot's `job_idx`; each
    /// stream list arrives in per-domain LRU order, so every insert is
    /// an O(1) tail append.
    pub(crate) fn restore_state(&mut self, st: &ShardState) {
        self.table = StreamTable::new();
        self.metrics = st.metrics;
        self.clock = st.clock;
        self.last_sweep = st.last_sweep;
        self.jobs.clear();
        self.job_index.clear();
        self.job_clocks.clear();
        for &(job, m, wm) in &st.jobs {
            let i = u32::try_from(self.jobs.len()).expect("job count fits u32");
            self.job_index.insert(job, i);
            self.jobs.push((job, m));
            self.job_clocks.push(wm);
            self.table.ensure_domain(job);
        }
        self.model_stats.clone_from(&st.model_stats);
        self.job_models.clone_from(&st.job_models);
        for s in &st.streams {
            let job_idx = self.job_index[&s.key.job];
            let slot = self.rebuild_slot(s, job_idx);
            self.table.insert(s.key, s.last_seen, slot);
        }
    }

    /// Serializes one job's slice of this shard: its rollup and
    /// per-model counters (if the job ever ingested here), its time
    /// watermark, and its resident streams in LRU order.
    pub(crate) fn export_job_state(
        &self,
        job: JobId,
    ) -> (Option<JobMetrics>, Vec<ModelStats>, u64, Vec<StreamState>) {
        let metrics = self.job_index.get(&job).map(|&i| self.jobs[i as usize].1);
        let models = self
            .job_index
            .get(&job)
            .map(|&i| self.job_models[i as usize].clone())
            .unwrap_or_default();
        let mut streams = Vec::new();
        if let Some(d) = self.table.domain_for_job(job) {
            streams.reserve(self.table.domain_len(d));
            for id in self.table.domain_iter(d) {
                streams.push(self.export_stream(id));
            }
        }
        (metrics, models, self.job_now(job), streams)
    }

    /// Removes every trace of `job` from this shard — streams, rollup
    /// history, and watermark — returning how many streams left. Unlike
    /// [`Shard::evict_job`] this is a *move*, not an eviction: nothing
    /// counts toward `evicted`, and the job's historical counters are
    /// subtracted from the shard totals (they travel with the job), so
    /// shard totals stay the sum of the remaining rollups.
    pub(crate) fn extract_job(&mut self, job: JobId) -> usize {
        let Some(&ji) = self.job_index.get(&job) else {
            return 0;
        };
        let mut removed = 0;
        if let Some(d) = self.table.domain_for_job(job) {
            while let Some(id) = self.table.domain_oldest(d) {
                self.table.remove(id);
                removed += 1;
            }
        }
        let jm = std::mem::take(&mut self.jobs[ji as usize].1);
        self.job_clocks[ji as usize] = 0;
        subtract_job_counters(&mut self.metrics, &jm);
        // Per-model history travels with the job too: zero the job's
        // slab entry and subtract it from the shard totals.
        let models = std::mem::replace(
            &mut self.job_models[ji as usize],
            vec![ModelStats::default(); self.model_stats.len()],
        );
        for (tot, m) in self.model_stats.iter_mut().zip(&models) {
            tot.hits -= m.hits;
            tot.misses -= m.misses;
            tot.abstentions -= m.abstentions;
            tot.champion_events -= m.champion_events;
            tot.swaps_in -= m.swaps_in;
        }
        removed
    }

    /// Re-homes `job`'s streams into this shard: interns the rollup
    /// entry, folds the job clock up to `watermark`, and inserts the
    /// streams (arriving in LRU order — O(1) tail appends). The rollup's
    /// `resident_streams` grows by exactly the streams inserted *here*,
    /// so per-shard residency accounting (sweeps, evictions) stays
    /// exact; historical counters arrive separately via
    /// [`Shard::restore_job_history`].
    pub(crate) fn restore_job_streams(
        &mut self,
        job: JobId,
        streams: &[StreamState],
        watermark: u64,
    ) {
        if streams.is_empty() && watermark == 0 {
            return;
        }
        let ji = self.job_entry(job);
        self.job_clocks[ji as usize] = self.job_clocks[ji as usize].max(watermark);
        for s in streams {
            debug_assert_eq!(s.key.job, job, "stream routed to the wrong job");
            let slot = self.rebuild_slot(s, ji);
            self.table.insert(s.key, s.last_seen, slot);
            self.clock = self.clock.max(s.last_seen);
        }
        self.jobs[ji as usize].1.resident_streams += streams.len() as u64;
        self.metrics.resident_streams = self.table.len() as u64;
    }

    /// Folds `job`'s historical counters (minus residency, which
    /// [`Shard::restore_job_streams`] accounts per shard) into its
    /// rollup and the shard totals — the single-shard home for a
    /// migrated job's history, keeping federation-wide rollup sums
    /// exact across the move.
    pub(crate) fn restore_job_history(
        &mut self,
        job: JobId,
        metrics: &JobMetrics,
        models: &[ModelStats],
    ) {
        let ji = self.job_entry(job) as usize;
        let mut hist = *metrics;
        hist.resident_streams = 0;
        self.jobs[ji].1.merge(&hist);
        add_job_counters(&mut self.metrics, &hist);
        // check_config matched the rosters, so positions line up; the
        // resize only defends against a shorter local slab.
        if !models.is_empty() {
            let jm = &mut self.job_models[ji];
            if jm.len() < models.len() {
                jm.resize(models.len(), ModelStats::default());
            }
            if self.model_stats.len() < models.len() {
                self.model_stats.resize(models.len(), ModelStats::default());
            }
            for (i, m) in models.iter().enumerate() {
                jm[i].merge(m);
                self.model_stats[i].merge(m);
            }
        }
    }
}

/// Adds a job rollup's counters into shard totals (residency excluded —
/// it is tracked per shard by stream insertion/removal; transport
/// high-water marks have no per-job component).
fn add_job_counters(m: &mut ShardMetrics, j: &JobMetrics) {
    m.events_ingested += j.events_ingested;
    m.predictions_served += j.predictions_served;
    m.forecasts_served += j.forecasts_served;
    m.forecast_predictions += j.forecast_predictions;
    m.hits += j.hits;
    m.misses += j.misses;
    m.abstentions += j.abstentions;
    m.period_churn += j.period_churn;
    m.evicted += j.evicted;
}

/// Inverse of [`add_job_counters`]: a migrating job takes its history
/// with it.
fn subtract_job_counters(m: &mut ShardMetrics, j: &JobMetrics) {
    m.events_ingested -= j.events_ingested;
    m.predictions_served -= j.predictions_served;
    m.forecasts_served -= j.forecasts_served;
    m.forecast_predictions -= j.forecast_predictions;
    m.hits -= j.hits;
    m.misses -= j.misses;
    m.abstentions -= j.abstentions;
    m.period_churn -= j.period_churn;
    m.evicted -= j.evicted;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{StreamKey, StreamKind};

    fn key(rank: u32) -> StreamKey {
        StreamKey::new(rank, StreamKind::Sender)
    }

    fn feed_pattern(shard: &mut Shard, k: StreamKey, pattern: &[u64], cycles: usize) {
        for _ in 0..cycles {
            for &v in pattern {
                shard.observe(Observation::new(k, v));
            }
        }
    }

    #[test]
    fn shard_predicts_like_a_lone_predictor() {
        let mut shard = Shard::new(DpdConfig::default());
        feed_pattern(&mut shard, key(0), &[7, 1, 4], 12);
        let mut reference = DpdPredictor::new(DpdConfig::default());
        for _ in 0..12 {
            for v in [7u64, 1, 4] {
                reference.observe(v);
            }
        }
        for h in 1..=6 {
            // Interning maps {7,1,4} -> {0,1,2}; prediction maps back.
            assert_eq!(
                shard.predict(Query::new(key(0), h)),
                reference.predict(h as usize),
                "horizon {h}"
            );
        }
        assert_eq!(shard.period_of(key(0)), Some(3));
    }

    #[test]
    fn streams_are_isolated() {
        let mut shard = Shard::new(DpdConfig::default());
        feed_pattern(&mut shard, key(0), &[1, 2], 10);
        feed_pattern(&mut shard, key(1), &[5, 6, 7], 10);
        assert_eq!(shard.period_of(key(0)), Some(2));
        assert_eq!(shard.period_of(key(1)), Some(3));
        assert_eq!(shard.predict(Query::new(key(0), 1)), Some(1));
        assert_eq!(shard.predict(Query::new(key(1), 1)), Some(5));
        assert_eq!(shard.stream_count(), 2);
    }

    #[test]
    fn sender_and_size_streams_of_one_rank_are_distinct() {
        let mut shard = Shard::new(DpdConfig::default());
        let ks = StreamKey::new(9, StreamKind::Sender);
        let kz = StreamKey::new(9, StreamKind::Size);
        feed_pattern(&mut shard, ks, &[1, 2], 10);
        feed_pattern(&mut shard, kz, &[100, 200, 800], 10);
        assert_eq!(shard.period_of(ks), Some(2));
        assert_eq!(shard.period_of(kz), Some(3));
    }

    #[test]
    fn unknown_stream_and_zero_horizon_yield_none() {
        let mut shard = Shard::new(DpdConfig::default());
        assert_eq!(shard.predict(Query::new(key(3), 1)), None);
        feed_pattern(&mut shard, key(3), &[4, 5], 10);
        assert_eq!(shard.predict(Query::new(key(3), 0)), None);
    }

    #[test]
    fn metrics_score_online_hits() {
        let mut shard = Shard::new(DpdConfig::default());
        // 30 cycles of a period-2 pattern: once locked, every +1 forecast
        // is correct, earlier observations are abstentions.
        feed_pattern(&mut shard, key(0), &[8, 9], 30);
        let m = shard.metrics();
        assert_eq!(m.events_ingested, 60);
        assert!(m.hits >= 50, "locked stream should mostly hit: {m:?}");
        assert_eq!(m.misses, 0);
        assert!(m.abstentions >= 2, "cold start abstains");
        assert_eq!(m.resident_streams, 1);
        let rate = m.hit_rate().unwrap();
        assert!(rate > 0.8, "hit rate {rate}");
    }

    #[test]
    fn churn_counts_lock_transitions() {
        let mut shard = Shard::new(DpdConfig {
            window: 16,
            max_lag: 8,
            ..DpdConfig::default()
        });
        feed_pattern(&mut shard, key(0), &[1, 2], 10);
        let after_lock = shard.metrics().period_churn;
        assert!(after_lock >= 1, "lock acquisition counts as churn");
        // A corruption drops the exact-mode lock, then re-locks: more churn.
        shard.observe(Observation::new(key(0), 99));
        feed_pattern(&mut shard, key(0), &[1, 2], 12);
        assert!(shard.metrics().period_churn > after_lock);
    }

    #[test]
    fn batch_ingest_tracks_queue_depth() {
        let mut shard = Shard::new(DpdConfig::default());
        let batch: Vec<Observation> = (0..5).map(|i| Observation::new(key(0), i % 2)).collect();
        shard.observe_all_at(&batch, 0);
        assert_eq!(shard.metrics().max_batch_depth, 5);
        assert_eq!(shard.metrics().events_ingested, 5);
        shard.observe_all_at(&batch[..2], 5);
        assert_eq!(
            shard.metrics().max_batch_depth,
            5,
            "depth is a high-water mark"
        );
    }

    #[test]
    fn batch_ingest_equals_per_event_ingest() {
        // Runs of one stream interleaved with switches: both ingest
        // paths must agree exactly.
        let mut batch = Vec::new();
        for i in 0..120u64 {
            let r = if i % 10 < 7 { 0 } else { (i % 3) as u32 + 1 };
            batch.push(Observation::new(key(r), i % 4));
        }
        let mut batched = Shard::new(DpdConfig::default());
        batched.observe_all_at(&batch, 0);
        let mut single = Shard::new(DpdConfig::default());
        for (i, obs) in batch.iter().enumerate() {
            single.observe_at(*obs, i as u64 + 1);
        }
        for r in 0..4 {
            for h in 1..=4 {
                assert_eq!(
                    batched.predict_at(Query::new(key(r), h), 120),
                    single.predict_at(Query::new(key(r), h), 120),
                    "rank {r} horizon {h}"
                );
            }
        }
        // Identical scoring; only the batch-depth high-water mark may
        // differ between one big batch and per-event ingestion.
        let mut bm = batched.metrics();
        bm.max_batch_depth = 0;
        let mut sm = single.metrics();
        sm.max_batch_depth = 0;
        assert_eq!(bm, sm);
        assert_eq!(batched.lru_oldest(4), single.lru_oldest(4));
    }

    #[test]
    fn clear_streams_keeps_counters() {
        let mut shard = Shard::new(DpdConfig::default());
        feed_pattern(&mut shard, key(0), &[1, 2], 5);
        let ingested = shard.metrics().events_ingested;
        shard.clear_streams();
        assert_eq!(shard.stream_count(), 0);
        assert_eq!(shard.metrics().events_ingested, ingested);
        assert_eq!(shard.metrics().resident_streams, 0);
        assert_eq!(shard.resident_jobs(), Vec::<JobId>::new());
    }

    #[test]
    fn ttl_masks_predictions_and_restarts_streams_cold() {
        let mut shard = Shard::with_ttl(DpdConfig::default(), Some(10));
        feed_pattern(&mut shard, key(0), &[1, 2], 10); // events 1..=20
        assert_eq!(shard.predict_at(Query::new(key(0), 1), 20), Some(1));
        // Within TTL the lock still serves.
        assert_eq!(shard.predict_at(Query::new(key(0), 1), 30), Some(1));
        // Past the TTL the stream is logically evicted.
        assert_eq!(shard.predict_at(Query::new(key(0), 1), 31), None);
        assert_eq!(shard.period_of_at(key(0), 31), None);
        // A new observation restarts it cold (abstention, no period).
        let before = shard.metrics();
        shard.observe_at(Observation::new(key(0), 1), 31);
        let after = shard.metrics();
        assert_eq!(after.evicted, before.evicted + 1);
        assert_eq!(after.abstentions, before.abstentions + 1);
        assert_eq!(shard.period_of_at(key(0), 31), None, "cold restart");
    }

    #[test]
    fn sweep_reclaims_exactly_the_expired_streams() {
        use crate::types::DEFAULT_JOB;
        let mut shard = Shard::with_ttl(DpdConfig::default(), Some(5));
        shard.observe_at(Observation::new(key(0), 1), 1);
        shard.observe_at(Observation::new(key(1), 1), 2);
        // The sweep ages streams against the job's watermark, which the
        // caller advances with its fresher reading of the job clock.
        shard.fold_job_now(DEFAULT_JOB, 6);
        assert_eq!(shard.sweep_expired(6), 0, "gap 5 <= ttl keeps key 0");
        shard.fold_job_now(DEFAULT_JOB, 7);
        assert_eq!(shard.sweep_expired(7), 1, "gap 6 > ttl evicts key 0");
        assert_eq!(shard.stream_count(), 1);
        assert_eq!(shard.metrics().evicted, 1);
        // Folding never moves a watermark backwards.
        shard.fold_job_now(DEFAULT_JOB, 3);
        assert_eq!(shard.job_now(DEFAULT_JOB), 7);
        // Unknown jobs have no watermark to fold into.
        shard.fold_job_now(42, 100);
        assert_eq!(shard.job_now(42), 0);
        // Without a TTL, sweeping is a no-op.
        let mut none = Shard::new(DpdConfig::default());
        none.observe_at(Observation::new(key(0), 1), 1);
        none.fold_job_now(DEFAULT_JOB, 1_000_000);
        assert_eq!(none.sweep_expired(1_000_000), 0);
    }

    #[test]
    fn sweeps_age_each_job_in_its_own_time() {
        // The cross-tenant TTL bug, pinned at the shard level: job A
        // floods while job B sits idle. B's streams must survive any
        // amount of A-traffic — only B's own clock can expire them.
        let ka = StreamKey::for_job(1, 0, StreamKind::Sender);
        let kb = StreamKey::for_job(2, 0, StreamKind::Sender);
        let mut shard = Shard::with_ttl(DpdConfig::default(), Some(10));
        shard.observe_at(Observation::new(kb, 5), 1); // B's job time: 1
                                                      // A floods: 10_000 events of job-A time.
        for t in 1..=10_000u64 {
            shard.observe_at(Observation::new(ka, t % 4), t);
        }
        assert_eq!(shard.sweep_expired(10_000), 0, "A's flood expires nothing");
        assert_eq!(shard.stream_count(), 2);
        // B is still servable in its own time...
        assert_eq!(shard.period_of_at(kb, shard.job_now(2)), None); // 1 obs: no lock yet
        assert!(shard.table.get(kb).is_some());
        // ...until B's *own* clock moves past the TTL.
        shard.fold_job_now(2, 12);
        assert_eq!(shard.sweep_expired(10_000), 1, "B expires in B-time only");
        assert_eq!(shard.stream_count(), 1);
        assert!(shard.table.get(kb).is_none());
        assert!(shard.table.get(ka).is_some(), "A was never touched");
    }

    #[test]
    fn sweep_timing_cannot_change_predictions() {
        // Same event sequence; one bank sweeps aggressively, one never.
        let drive = |sweep: bool| -> (Option<u64>, ShardMetrics) {
            let mut shard = Shard::with_ttl(DpdConfig::default(), Some(4));
            let mut at = 0;
            for _ in 0..10 {
                for v in [3u64, 9] {
                    at += 1;
                    shard.observe_at(Observation::new(key(0), v), at);
                }
            }
            at += 20; // long idle gap: the stream expires
            if sweep {
                shard.fold_job_now(crate::types::DEFAULT_JOB, at);
                shard.sweep_expired(at);
            }
            for v in [3u64, 9, 3, 9, 3, 9] {
                at += 1;
                shard.observe_at(Observation::new(key(0), v), at);
            }
            (shard.predict_at(Query::new(key(0), 1), at), shard.metrics())
        };
        let (swept_p, swept_m) = drive(true);
        let (lazy_p, lazy_m) = drive(false);
        assert_eq!(swept_p, lazy_p);
        assert_eq!(swept_m, lazy_m, "sweeps are metrics-invisible too");
        assert_eq!(swept_m.evicted, 1);
    }

    #[test]
    fn job_rollups_track_each_namespace_separately() {
        let mut shard = Shard::new(DpdConfig::default());
        let ka = StreamKey::for_job(1, 0, StreamKind::Sender);
        let kb = StreamKey::for_job(2, 0, StreamKind::Sender);
        feed_pattern(&mut shard, ka, &[1, 2], 10);
        feed_pattern(&mut shard, kb, &[5, 6, 7], 4);
        shard.predict(Query::new(ka, 1));
        assert_eq!(shard.resident_jobs(), vec![1, 2]);
        let jobs = shard.job_metrics();
        assert_eq!(jobs.len(), 2);
        let (ja, ma) = jobs[0];
        let (jb, mb) = jobs[1];
        assert_eq!((ja, jb), (1, 2));
        assert_eq!(ma.events_ingested, 20);
        assert_eq!(mb.events_ingested, 12);
        assert_eq!(ma.resident_streams, 1);
        assert_eq!(ma.predictions_served, 1);
        assert_eq!(mb.predictions_served, 0);
        assert!(ma.hits > mb.hits, "longer training, more hits");
        // Shard totals equal the sum of the job rollups.
        let total = shard.metrics();
        assert_eq!(
            total.events_ingested,
            ma.events_ingested + mb.events_ingested
        );
        assert_eq!(total.hits, ma.hits + mb.hits);
        assert_eq!(total.abstentions, ma.abstentions + mb.abstentions);
    }

    #[test]
    fn forecast_counts_one_served_forecast_not_per_horizon_predicts() {
        let mut shard = Shard::new(DpdConfig::default());
        let job = 3u32;
        for _ in 0..15 {
            shard.observe(Observation::new(
                StreamKey::for_job(job, 0, StreamKind::Sender),
                7,
            ));
            shard.observe(Observation::new(
                StreamKey::for_job(job, 0, StreamKind::Size),
                512,
            ));
        }
        let mut out = Vec::new();
        shard.forecast_at(job, 0, 4, shard.clock, &mut out);
        assert_eq!(out, vec![(Some(7), Some(512)); 4]);
        let m = shard.metrics();
        assert_eq!(m.forecasts_served, 1, "one forecast call, one count");
        assert_eq!(m.forecast_predictions, 8, "2 streams x depth 4");
        assert_eq!(
            m.predictions_served, 0,
            "forecasts do not inflate the explicit-query counter"
        );
        let jm = shard.job_metrics();
        assert_eq!(jm[0].1.forecasts_served, 1);
        assert_eq!(jm[0].1.forecast_predictions, 8);
        assert_eq!(jm[0].1.predictions_served, 0);
        // Unknown-job forecasts count on the shard but materialise no
        // phantom rollup entry.
        shard.forecast_at(99, 0, 2, shard.clock, &mut out);
        assert_eq!(out, vec![(None, None); 2]);
        assert_eq!(shard.metrics().forecasts_served, 2);
        assert_eq!(shard.job_metrics().len(), 1);
    }

    #[test]
    fn evict_job_reclaims_only_that_namespace_and_keeps_history() {
        let mut shard = Shard::new(DpdConfig::default());
        feed_pattern(
            &mut shard,
            StreamKey::for_job(1, 0, StreamKind::Sender),
            &[1, 2],
            5,
        );
        feed_pattern(
            &mut shard,
            StreamKey::for_job(1, 0, StreamKind::Size),
            &[64],
            5,
        );
        feed_pattern(
            &mut shard,
            StreamKey::for_job(2, 0, StreamKind::Sender),
            &[9],
            5,
        );
        assert_eq!(shard.evict_job(1), 2);
        assert_eq!(shard.evict_job(1), 0, "already gone");
        assert_eq!(shard.stream_count(), 1);
        assert_eq!(shard.resident_jobs(), vec![2]);
        let jobs = shard.job_metrics();
        assert_eq!(jobs[0].0, 1, "evicted job keeps its rollup history");
        assert_eq!(jobs[0].1.events_ingested, 15);
        assert_eq!(jobs[0].1.evicted, 2);
        assert_eq!(jobs[0].1.resident_streams, 0);
        // TTL sweeps attribute evictions to the owning job too.
        let mut ttl_shard = Shard::with_ttl(DpdConfig::default(), Some(2));
        ttl_shard.observe_at(
            Observation::new(StreamKey::for_job(4, 0, StreamKind::Tag), 1),
            1,
        );
        ttl_shard.fold_job_now(4, 10);
        assert_eq!(ttl_shard.sweep_expired(10), 1);
        assert_eq!(ttl_shard.job_metrics()[0].1.evicted, 1);
    }

    #[test]
    fn forced_eviction_and_lru_order() {
        let mut shard = Shard::new(DpdConfig::default());
        shard.observe_at(Observation::new(key(0), 1), 1);
        shard.observe_at(Observation::new(key(1), 1), 2);
        shard.observe_at(Observation::new(key(2), 1), 3);
        shard.observe_at(Observation::new(key(0), 2), 4); // key 0 refreshed
        let oldest = shard.lru_oldest(2);
        assert_eq!(oldest[0].1, key(1), "least recently observed first");
        assert_eq!(oldest[1].1, key(2));
        assert_eq!(shard.evict_lru(2), 2);
        assert_eq!(shard.stream_count(), 1);
        assert!(shard.evict_stream(key(0)));
        assert!(!shard.evict_stream(key(0)), "already gone");
        assert_eq!(shard.metrics().evicted, 3);
    }

    #[test]
    fn default_shard_has_no_ensemble_state() {
        let mut shard = Shard::new(DpdConfig::default());
        feed_pattern(&mut shard, key(0), &[1, 2], 10);
        assert!(shard.model_stats().is_empty());
        assert_eq!(shard.job_model_stats().len(), 1);
        assert!(shard.job_model_stats()[0].1.is_empty());
        assert!(!shard.ensemble().enabled());
    }

    #[test]
    fn ensemble_swaps_to_a_better_challenger_and_serves_it() {
        // An arithmetic stream: every value is new, so the DPD (which
        // needs repeats) can never lock, while the stride challenger
        // nails every step. The champion must swap to stride and
        // serve its raw-space extrapolations.
        let ens = EnsembleConfig {
            challengers: vec![PredictorKind::Stride],
            window: 16,
            min_lead: 4,
        };
        let mut shard = Shard::with_ensemble(DpdConfig::default(), None, ens);
        for i in 0..200u64 {
            shard.observe(Observation::new(key(0), 1000 + 10 * i));
        }
        // Stride extrapolates a value never observed (and never
        // interned) — only a raw-space challenger can produce it.
        assert_eq!(shard.predict(Query::new(key(0), 1)), Some(1000 + 10 * 200));
        let ms = shard.model_stats();
        assert_eq!(ms.len(), 2, "primary + one challenger");
        assert_eq!(ms[1].swaps_in, 1, "one sustained-lead swap");
        assert!(ms[1].hits > ms[0].hits, "stride outscores the DPD");
        // Every member is scored on every event.
        for m in &ms {
            assert_eq!(m.hits + m.misses + m.abstentions, 200);
        }
        // Champion-event split covers the whole stream: the DPD served
        // the first window, stride everything after the swap.
        assert_eq!(ms[0].champion_events + ms[1].champion_events, 200);
        assert!(ms[1].champion_events > ms[0].champion_events);
        // The per-job rollup mirrors the shard slab (one job here).
        assert_eq!(shard.job_model_stats()[0].1, ms);
    }

    #[test]
    fn ensemble_with_dpd_champion_scores_like_the_legacy_path() {
        // On a periodic stream the DPD stays champion (challenger list
        // has no sustained lead), and the legacy hit/miss counters must
        // be driven by the same primary outcomes as a DPD-only shard.
        let ens = EnsembleConfig {
            challengers: vec![PredictorKind::Frequency],
            window: 32,
            min_lead: 8,
        };
        let mut with_ens = Shard::with_ensemble(DpdConfig::default(), None, ens);
        let mut plain = Shard::new(DpdConfig::default());
        for s in [&mut with_ens, &mut plain] {
            feed_pattern(s, key(0), &[7, 1, 4], 20);
        }
        let (me, mp) = (with_ens.metrics(), plain.metrics());
        assert_eq!(me.hits, mp.hits);
        assert_eq!(me.misses, mp.misses);
        assert_eq!(me.abstentions, mp.abstentions);
        assert_eq!(
            with_ens.predict(Query::new(key(0), 1)),
            plain.predict(Query::new(key(0), 1))
        );
        assert_eq!(with_ens.model_stats()[0].swaps_in, 0);
    }

    #[test]
    fn lru_order_survives_re_observation_and_slot_reuse() {
        // Satellite pin: re-observing moves a stream to the back of the
        // victim order, and a stream re-created into a *reused* slab
        // slot is ordered by its new stamp, not its slot index.
        let mut shard = Shard::new(DpdConfig::default());
        shard.observe_at(Observation::new(key(0), 1), 1);
        shard.observe_at(Observation::new(key(1), 1), 2);
        shard.observe_at(Observation::new(key(2), 1), 3);
        // Re-observe the oldest: victim order rotates.
        shard.observe_at(Observation::new(key(0), 1), 4);
        assert_eq!(
            shard
                .lru_oldest(3)
                .iter()
                .map(|&(_, k)| k)
                .collect::<Vec<_>>(),
            vec![key(1), key(2), key(0)]
        );
        // Evict + re-create: key 1's slot is freed and reused, but its
        // recency is the fresh stamp.
        assert!(shard.evict_stream(key(1)));
        shard.observe_at(Observation::new(key(3), 1), 5); // reuses the freed slot
        shard.observe_at(Observation::new(key(1), 1), 6); // grows or reuses
        assert_eq!(
            shard
                .lru_oldest(4)
                .iter()
                .map(|&(_, k)| k)
                .collect::<Vec<_>>(),
            vec![key(2), key(0), key(3), key(1)]
        );
        assert_eq!(shard.stream_count(), 4);
    }
}
