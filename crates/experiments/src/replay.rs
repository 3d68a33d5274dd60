//! Full-speed replay of NAS benchmark traces through the `mpp-engine`
//! serving layer — shared by the `engine_replay` binary and the
//! golden-trace regression tests (`tests/golden_replay.rs`) that pin
//! the paper-level hit rates against later engine refactors.

use mpp_core::dpd::DpdConfig;
use mpp_core::PredictorKind;
use mpp_engine::{
    BackpressurePolicy, DurabilityConfig, EngineConfig, EnsembleConfig, FederatedEngine,
    FederationConfig, JobId, JobMetrics, ModelStats, Observation, PersistentEngine, RecoverError,
    RecoveryReport, ShardMetrics, SnapshotError, StreamKey, StreamKind, TelemetryConfig,
    TelemetrySnapshot,
};
use mpp_nasbench::{run_config, BenchmarkConfig};
use std::time::Instant;

/// Events ingested per `observe_batch` call during replay.
pub const REPLAY_BATCH: usize = 8192;

/// Engine-side options for one replay run.
#[derive(Debug, Clone)]
pub struct ReplayOpts {
    /// Shard count (per federation member).
    pub shards: usize,
    /// Idle-stream TTL in engine-time events (`None` disables).
    pub ttl: Option<u64>,
    /// Bound on each shard's observe lane (`None` leaves lanes
    /// unbounded).
    pub queue_cap: Option<usize>,
    /// Full-lane policy for bounded lanes.
    pub backpressure: BackpressurePolicy,
    /// Interleaved job copies of the trace to replay (job ids
    /// `0..jobs`); 1 is the single-tenant replay.
    pub jobs: usize,
    /// Federation member engines serving the replay; 1 wraps a single
    /// engine (bit-identical to direct use).
    pub engines: usize,
    /// Runs the champion/challenger ensemble
    /// ([`EnsembleConfig::standard`]) instead of the DPD-only default;
    /// the report gains per-predictor win-rate rows.
    pub ensemble: bool,
    /// Widens the ensemble to the full roster
    /// ([`EnsembleConfig::full`]); implies `ensemble`.
    pub ensemble_full: bool,
    /// Enables the engine telemetry layer (latency histograms, flight
    /// recorder); the final snapshot lands on the report.
    pub telemetry: bool,
    /// With telemetry enabled: capture a cumulative snapshot every `N`
    /// ingest batches ([`REPLAY_BATCH`] events each). The snapshot
    /// round-trips a query through every shard, so interval capture
    /// perturbs `events_per_sec` — leave it off for rate measurements.
    pub stats_every: Option<usize>,
}

impl Default for ReplayOpts {
    fn default() -> Self {
        ReplayOpts {
            shards: 4,
            ttl: None,
            queue_cap: None,
            backpressure: BackpressurePolicy::Block,
            jobs: 1,
            engines: 1,
            ensemble: false,
            ensemble_full: false,
            telemetry: false,
            stats_every: None,
        }
    }
}

impl ReplayOpts {
    /// Default options at `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        ReplayOpts {
            shards,
            ..ReplayOpts::default()
        }
    }

    /// Sets the idle-stream TTL.
    pub fn ttl(mut self, ttl: Option<u64>) -> Self {
        self.ttl = ttl;
        self
    }

    /// Bounds the persistent observe lanes.
    pub fn queue_cap(mut self, cap: Option<usize>) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the full-lane policy.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the number of interleaved job copies.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the number of federation member engines.
    pub fn engines(mut self, engines: usize) -> Self {
        self.engines = engines;
        self
    }

    /// Enables or disables the standard challenger ensemble.
    pub fn ensemble(mut self, on: bool) -> Self {
        self.ensemble = on;
        self
    }

    /// Widens the ensemble to the full challenger roster (implies
    /// [`ensemble`](Self::ensemble)).
    pub fn ensemble_full(mut self, on: bool) -> Self {
        self.ensemble_full = on;
        self
    }

    /// Enables or disables the telemetry layer.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Captures a cumulative telemetry snapshot every `n` batches
    /// (implies nothing unless telemetry is enabled).
    pub fn stats_every(mut self, n: Option<usize>) -> Self {
        self.stats_every = n;
        self
    }

    fn engine_config(&self) -> EngineConfig {
        let cfg = EngineConfig {
            shards: self.shards,
            dpd: DpdConfig::default(),
            ttl: self.ttl,
            observe_queue_cap: self.queue_cap,
            backpressure: self.backpressure,
            ensemble: if self.ensemble_full {
                EnsembleConfig::full()
            } else if self.ensemble {
                EnsembleConfig::standard()
            } else {
                EnsembleConfig::default()
            },
            ..EngineConfig::default()
        };
        if self.telemetry {
            cfg.with_telemetry(TelemetryConfig::enabled())
        } else {
            cfg
        }
    }
}

/// Flattens a trace into engine observations, interleaving ranks in
/// logical-index order (round-robin-ish, like a serving layer ingesting
/// many ranks' deliveries concurrently).
pub fn trace_to_events(trace: &mpp_mpisim::Trace) -> Vec<Observation> {
    let mut out = Vec::new();
    let mut cursors: Vec<usize> = vec![0; trace.nprocs()];
    loop {
        let mut progressed = false;
        for rank in 0..trace.nprocs() {
            let events = trace.receives_of(rank);
            if cursors[rank] >= events.len() {
                continue;
            }
            let e = &events[cursors[rank]];
            cursors[rank] += 1;
            progressed = true;
            let r = rank as u32;
            out.push(Observation::new(
                StreamKey::new(r, StreamKind::Sender),
                e.src as u64,
            ));
            out.push(Observation::new(
                StreamKey::new(r, StreamKind::Size),
                e.bytes,
            ));
            out.push(Observation::new(
                StreamKey::new(r, StreamKind::Tag),
                u64::from(e.tag),
            ));
        }
        if !progressed {
            return out;
        }
    }
}

/// One replayed configuration's serving-layer summary.
pub struct ReplayReport {
    /// Configuration label (paper notation, e.g. `cg.8`).
    pub label: String,
    /// Events ingested (3 per traced delivery, × job copies).
    pub events: usize,
    /// Events the engine carried in from a restored snapshot (0 for a
    /// cold replay). `restored + replayed == events`.
    pub restored_events: u64,
    /// Events this process actually submitted (`events` for a cold
    /// replay; the post-cut tail for a restored one).
    pub replayed_events: u64,
    /// Aggregate engine counters after the replay (all members).
    pub total: ShardMetrics,
    /// Per-shard counters after the replay (members concatenated in
    /// member order for federated runs).
    pub per_shard: Vec<ShardMetrics>,
    /// Per-job scoring rollups, ascending by job id.
    pub per_job: Vec<(JobId, JobMetrics)>,
    /// Per-predictor ensemble columns, in roster order (index 0 = the
    /// primary DPD): predictor label plus its scoring/championship
    /// counters. Empty for DPD-only replays.
    pub models: Vec<(&'static str, ModelStats)>,
    /// Ingest rate over the timed replay loop.
    pub events_per_sec: f64,
    /// Final telemetry snapshot (`None` unless `opts.telemetry`).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Cumulative mid-replay snapshots taken every
    /// [`ReplayOpts::stats_every`] batches, in capture order.
    pub intervals: Vec<ReplayInterval>,
}

/// One mid-replay telemetry capture.
pub struct ReplayInterval {
    /// Events submitted when the snapshot was taken.
    pub events: usize,
    /// Cumulative telemetry at that point.
    pub snapshot: TelemetrySnapshot,
}

impl ReplayReport {
    /// Online `+1` hit rate (0 when nothing was scored).
    pub fn hit_rate(&self) -> f64 {
        self.total.hit_rate().unwrap_or(0.0)
    }

    /// One job's online `+1` hit rate (0 when nothing was scored).
    pub fn job_hit_rate(&self, job: JobId) -> f64 {
        self.per_job
            .iter()
            .find(|&&(j, _)| j == job)
            .and_then(|(_, m)| m.hit_rate())
            .unwrap_or(0.0)
    }

    /// One roster member's *win rate*: the share of all ingested events
    /// it served as the stream's champion (0 outside ensemble replays;
    /// the shares sum to 1 within one).
    pub fn model_win_rate(&self, label: &str) -> f64 {
        let total: u64 = self.models.iter().map(|(_, m)| m.champion_events).sum();
        if total == 0 {
            return 0.0;
        }
        self.models
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |(_, m)| m.champion_events as f64 / total as f64)
    }

    /// One roster member's own online `+1` hit rate across every event
    /// (scored whether or not it was champion; 0 outside ensemble
    /// replays).
    pub fn model_hit_rate(&self, label: &str) -> f64 {
        self.models
            .iter()
            .find(|(l, _)| *l == label)
            .and_then(|(_, m)| m.hit_rate())
            .unwrap_or(0.0)
    }
}

/// Display labels for an ensemble roster, in member order (index 0 =
/// the primary DPD).
pub fn roster_labels(ens: &EnsembleConfig) -> Vec<&'static str> {
    let mut out = Vec::with_capacity(ens.roster_len());
    out.push(PredictorKind::Dpd.label());
    out.extend(ens.challengers.iter().map(|k| k.label()));
    out
}

/// Re-keys `events` into `jobs` interleaved job copies: source event
/// `i` becomes events `i*jobs ..` for jobs `0..jobs`, so the engine
/// sees all tenants' identical streams arriving concurrently. Each
/// job's subsequence equals the original sequence, so per-job results
/// must match the single-tenant replay bit for bit (the federated
/// golden pin relies on this).
pub fn interleave_jobs(events: &[Observation], jobs: usize) -> Vec<Observation> {
    assert!(jobs > 0, "at least one job copy");
    if jobs == 1 {
        return events.to_vec();
    }
    let mut out = Vec::with_capacity(events.len() * jobs);
    for e in events {
        for j in 0..jobs {
            let key = StreamKey::for_job(j as JobId, e.key.rank, e.key.kind);
            out.push(Observation::new(key, e.value));
        }
    }
    out
}

/// Engine-side outcome of one replay: per-shard counters, per-job
/// rollups, ingest rate, and (telemetry-enabled runs) the final plus
/// mid-replay snapshots.
pub struct ReplayOutcome {
    /// Per-shard counters, members concatenated in member order.
    pub per_shard: Vec<ShardMetrics>,
    /// Per-job scoring rollups, ascending by job id.
    pub per_job: Vec<(JobId, JobMetrics)>,
    /// Labelled per-predictor rollup (empty for DPD-only replays).
    pub models: Vec<(&'static str, ModelStats)>,
    /// Ingest rate over the timed replay loop.
    pub events_per_sec: f64,
    /// Final telemetry snapshot (`None` unless `opts.telemetry`).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Cumulative mid-replay snapshots (`opts.stats_every`).
    pub intervals: Vec<ReplayInterval>,
}

/// Replays pre-flattened `events` through a fresh federation per
/// `opts` — single-member for `engines == 1`, which is bit-identical to
/// driving the engine directly (pinned by the golden replays and
/// `mpp-engine/tests/federation.rs`).
pub fn replay_events(events: &[Observation], opts: &ReplayOpts) -> ReplayOutcome {
    assert!(opts.engines > 0, "at least one engine");
    let cfg = opts.engine_config();
    let labels = roster_labels(&cfg.ensemble);
    let every = opts.stats_every.filter(|_| opts.telemetry);
    let mut intervals = Vec::new();
    let fed = FederatedEngine::new(FederationConfig {
        members: opts.engines,
        member: cfg,
    });
    let client = fed.client();
    let start = Instant::now();
    let mut submitted = 0usize;
    for (i, chunk) in events.chunks(REPLAY_BATCH).enumerate() {
        client.observe_batch(chunk);
        submitted += chunk.len();
        if every.is_some_and(|n| (i + 1) % n == 0) {
            // The snapshot query queues behind the submitted batches, so
            // each interval reflects fully-ingested prefixes only.
            if let Some(snapshot) = client.telemetry() {
                intervals.push(ReplayInterval {
                    events: submitted,
                    snapshot,
                });
            }
        }
    }
    // The metrics round-trip queues behind every submitted batch, so it
    // also closes the timing window fairly.
    let per_shard: Vec<ShardMetrics> = client
        .metrics()
        .members
        .into_iter()
        .flat_map(|m| m.shards)
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let per_job = client.job_metrics();
    let models = labels.iter().copied().zip(client.model_stats()).collect();
    let telemetry = opts.telemetry.then(|| client.telemetry()).flatten();
    ReplayOutcome {
        per_shard,
        per_job,
        models,
        events_per_sec: events.len() as f64 / secs.max(1e-12),
        telemetry,
        intervals,
    }
}

/// Runs `config` once and replays its trace (interleaved into
/// `opts.jobs` job copies) through the engine.
pub fn replay(config: &BenchmarkConfig, seed: u64, opts: &ReplayOpts) -> ReplayReport {
    let trace = run_config(config, seed);
    let events = interleave_jobs(&trace_to_events(&trace), opts.jobs);
    let outcome = replay_events(&events, opts);
    report_of(config, events.len(), 0, outcome)
}

fn report_of(
    config: &BenchmarkConfig,
    events: usize,
    restored: u64,
    outcome: ReplayOutcome,
) -> ReplayReport {
    let mut total = ShardMetrics::default();
    for m in &outcome.per_shard {
        total.merge(m);
    }
    ReplayReport {
        label: config.label(),
        events,
        restored_events: restored,
        // Derived from what the engine actually ingested, not the trace
        // length: under `shed` backpressure some events never land.
        replayed_events: total.events_ingested - restored,
        total,
        per_shard: outcome.per_shard,
        per_job: outcome.per_job,
        models: outcome.models,
        events_per_sec: outcome.events_per_sec,
        telemetry: outcome.telemetry,
        intervals: outcome.intervals,
    }
}

/// The cut point `--snapshot` halts at: the midpoint, rounded down to
/// a [`REPLAY_BATCH`] boundary so the head replays whole batches. For
/// traces shorter than two batches the raw midpoint is used — a
/// rounded cut would be 0 and the snapshot would capture nothing.
pub fn snapshot_cut(events: usize) -> usize {
    let aligned = events / 2 / REPLAY_BATCH * REPLAY_BATCH;
    if aligned == 0 {
        events / 2
    } else {
        aligned
    }
}

/// Runs `config`, replays the first `halt_at` events (default: the
/// [`snapshot_cut`] midpoint; clamped to the trace), and returns the
/// engine's versioned snapshot bytes plus the halt point. Restricted
/// to one engine: a snapshot captures one engine's state (`jobs > 1`
/// is fine — tenants ride inside it).
pub fn replay_to_snapshot(
    config: &BenchmarkConfig,
    seed: u64,
    opts: &ReplayOpts,
    halt_at: Option<usize>,
) -> (Vec<u8>, usize) {
    assert!(
        opts.engines == 1,
        "snapshot replay captures a single engine (--engines 1)"
    );
    let trace = run_config(config, seed);
    let events = interleave_jobs(&trace_to_events(&trace), opts.jobs);
    let halt = halt_at
        .unwrap_or_else(|| snapshot_cut(events.len()))
        .min(events.len());
    let engine = PersistentEngine::new(opts.engine_config());
    let client = engine.client();
    for chunk in events[..halt].chunks(REPLAY_BATCH) {
        client.observe_batch(chunk);
    }
    (client.snapshot(), halt)
}

/// Runs `config`, restores the engine from `bytes`, and replays
/// exactly the events the snapshot had not yet ingested (the skip
/// count is read back from the restored engine's own
/// `events_ingested`, so resumption is deterministic — no sidecar
/// cursor file). The report's `restored_events` / `replayed_events`
/// split lets validators reason about which counters predate this
/// process (`telemetry_check` pins `events_ingested == restored +
/// replayed` and that the ingest histograms timed only the replayed
/// tail).
pub fn replay_from_snapshot(
    config: &BenchmarkConfig,
    seed: u64,
    opts: &ReplayOpts,
    bytes: &[u8],
) -> Result<ReplayReport, SnapshotError> {
    assert!(
        opts.engines == 1,
        "snapshot replay restores a single engine (--engines 1)"
    );
    let trace = run_config(config, seed);
    let events = interleave_jobs(&trace_to_events(&trace), opts.jobs);
    let cfg = opts.engine_config();
    let labels = roster_labels(&cfg.ensemble);
    let engine = PersistentEngine::restore(cfg, bytes)?;
    let client = engine.client();
    let restored = (client.metrics_total().events_ingested as usize).min(events.len());
    let start = Instant::now();
    for chunk in events[restored..].chunks(REPLAY_BATCH) {
        client.observe_batch(chunk);
    }
    // The metrics round-trip queues behind every submitted batch,
    // closing the timing window fairly (as in `replay_events`).
    let per_shard: Vec<ShardMetrics> = client.metrics().shards;
    let secs = start.elapsed().as_secs_f64();
    let per_job = client.job_metrics();
    let models = labels.iter().copied().zip(client.model_stats()).collect();
    let telemetry = opts.telemetry.then(|| client.telemetry()).flatten();
    let outcome = ReplayOutcome {
        per_shard,
        per_job,
        models,
        events_per_sec: (events.len() - restored) as f64 / secs.max(1e-12),
        telemetry,
        intervals: Vec::new(),
    };
    Ok(report_of(config, events.len(), restored as u64, outcome))
}

/// Runs `config` and replays it through a *durable* persistent engine:
/// every ingested batch is appended to the observation log under
/// `durability.dir`, and a snapshot checkpoint is written at the
/// [`snapshot_cut`] midpoint batch boundary (so recovery exercises
/// both the snapshot anchor and the log tail past it). The log is
/// fsynced before returning, making the whole replay crash-durable —
/// and making a `kill -9` at *any* earlier moment recoverable via
/// [`replay_recover`] (the CI kill-9 smoke does exactly that).
/// Restricted to one persistent engine: the log records one engine's
/// observation stream.
pub fn replay_with_wal(
    config: &BenchmarkConfig,
    seed: u64,
    opts: &ReplayOpts,
    durability: DurabilityConfig,
) -> ReplayReport {
    assert!(
        opts.engines == 1,
        "the observation log records a single engine (--engines 1)"
    );
    let trace = run_config(config, seed);
    let events = interleave_jobs(&trace_to_events(&trace), opts.jobs);
    let cfg = opts.engine_config().with_durability(durability);
    let labels = roster_labels(&cfg.ensemble);
    let engine = PersistentEngine::new(cfg);
    let client = engine.client();
    let cut = snapshot_cut(events.len());
    let start = Instant::now();
    let mut submitted = 0usize;
    for chunk in events.chunks(REPLAY_BATCH) {
        client.observe_batch(chunk);
        submitted += chunk.len();
        if submitted.saturating_sub(chunk.len()) < cut && submitted >= cut {
            client
                .checkpoint()
                .expect("midpoint checkpoint")
                .expect("durability is configured");
        }
    }
    // Durability barrier: whatever the flush policy, everything
    // submitted above is on stable storage when this returns.
    engine.sync_wal();
    let per_shard = client.metrics().shards;
    let secs = start.elapsed().as_secs_f64();
    let per_job = client.job_metrics();
    let models = labels.iter().copied().zip(client.model_stats()).collect();
    let telemetry = opts.telemetry.then(|| client.telemetry()).flatten();
    let outcome = ReplayOutcome {
        per_shard,
        per_job,
        models,
        events_per_sec: events.len() as f64 / secs.max(1e-12),
        telemetry,
        intervals: Vec::new(),
    };
    report_of(config, events.len(), 0, outcome)
}

/// Recovers an engine from `durability.dir` (newest valid snapshot +
/// observation-log tail) and replays exactly the trace events the
/// recovered state had not yet ingested — the crash-recovery analogue
/// of [`replay_from_snapshot`], with the skip count read from the
/// recovered engine's own clock. The report's accounting follows the
/// durability contract: `restored_events` counts only what the
/// snapshot anchor carried in; events replayed from the log tail went
/// through the live observe path and count as `replayed_events`
/// (exactly like the trace remainder), so `telemetry_check`'s
/// `events_ingested == restored + replayed` invariant holds across a
/// crash.
pub fn replay_recover(
    config: &BenchmarkConfig,
    seed: u64,
    opts: &ReplayOpts,
    durability: DurabilityConfig,
) -> Result<(ReplayReport, RecoveryReport), RecoverError> {
    assert!(
        opts.engines == 1,
        "recovery rebuilds a single engine (--engines 1)"
    );
    let trace = run_config(config, seed);
    let events = interleave_jobs(&trace_to_events(&trace), opts.jobs);
    let cfg = opts.engine_config().with_durability(durability);
    let labels = roster_labels(&cfg.ensemble);
    let (engine, recovery) = PersistentEngine::recover(cfg)?;
    let client = engine.client();
    let skip = (recovery.events() as usize).min(events.len());
    let start = Instant::now();
    for chunk in events[skip..].chunks(REPLAY_BATCH) {
        client.observe_batch(chunk);
    }
    engine.sync_wal();
    let per_shard = client.metrics().shards;
    let secs = start.elapsed().as_secs_f64();
    let per_job = client.job_metrics();
    let models = labels.iter().copied().zip(client.model_stats()).collect();
    let telemetry = opts.telemetry.then(|| client.telemetry()).flatten();
    let outcome = ReplayOutcome {
        per_shard,
        per_job,
        models,
        events_per_sec: (events.len() - skip) as f64 / secs.max(1e-12),
        telemetry,
        intervals: Vec::new(),
    };
    Ok((
        report_of(config, events.len(), recovery.snapshot_events, outcome),
        recovery,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_nasbench::{BenchId, Class};

    #[test]
    fn shard_counts_agree_on_counters_for_a_small_config() {
        let cfg = BenchmarkConfig::new(BenchId::Cg, 4, Class::S);
        let a = replay(&cfg, 7, &ReplayOpts::with_shards(4));
        let b = replay(&cfg, 7, &ReplayOpts::with_shards(1));
        assert_eq!(a.events, b.events);
        assert_eq!(a.total.hits, b.total.hits);
        assert_eq!(a.total.misses, b.total.misses);
        assert_eq!(a.total.resident_streams, b.total.resident_streams);
        assert_eq!(a.per_shard.len(), 4);
        assert_eq!(b.per_shard.len(), 1);
    }

    #[test]
    fn bounded_block_replay_matches_unbounded_and_sheds_nothing() {
        let cfg = BenchmarkConfig::new(BenchId::Cg, 4, Class::S);
        let unbounded = replay(&cfg, 7, &ReplayOpts::with_shards(2));
        let bounded = replay(&cfg, 7, &ReplayOpts::with_shards(2).queue_cap(Some(2)));
        assert_eq!(bounded.total.hits, unbounded.total.hits);
        assert_eq!(bounded.total.misses, unbounded.total.misses);
        assert_eq!(
            bounded.total.events_ingested,
            unbounded.total.events_ingested
        );
        assert_eq!(bounded.total.shed_events, 0, "Block mode never sheds");
        assert!(bounded.total.queue_high_water <= 2, "lane within its cap");
    }

    #[test]
    fn ttl_replay_evicts_streams_that_go_quiet() {
        let cfg = BenchmarkConfig::new(BenchId::Cg, 4, Class::S);
        // A tiny TTL forces evictions during replay (streams interleave,
        // so gaps larger than a few events are common).
        let r = replay(&cfg, 7, &ReplayOpts::with_shards(2).ttl(Some(4)));
        assert!(r.total.evicted > 0, "tiny TTL must evict: {:?}", r.total);
        let loose = replay(&cfg, 7, &ReplayOpts::with_shards(2).ttl(Some(1_000_000)));
        assert_eq!(loose.total.evicted, 0, "huge TTL evicts nothing");
        assert!(loose.hit_rate() >= r.hit_rate());
    }

    #[test]
    fn interleave_preserves_each_jobs_subsequence() {
        let events = vec![
            Observation::new(StreamKey::new(0, StreamKind::Sender), 1),
            Observation::new(StreamKey::new(0, StreamKind::Size), 64),
            Observation::new(StreamKey::new(1, StreamKind::Sender), 2),
        ];
        assert_eq!(interleave_jobs(&events, 1), events);
        let tripled = interleave_jobs(&events, 3);
        assert_eq!(tripled.len(), 9);
        for job in 0..3u32 {
            let sub: Vec<_> = tripled.iter().filter(|o| o.key.job == job).collect();
            assert_eq!(sub.len(), events.len());
            for (got, want) in sub.iter().zip(&events) {
                assert_eq!(got.key.rank, want.key.rank);
                assert_eq!(got.key.kind, want.key.kind);
                assert_eq!(got.value, want.value);
            }
        }
    }

    #[test]
    fn federated_multi_job_replay_matches_single_tenant_per_job() {
        let cfg = BenchmarkConfig::new(BenchId::Cg, 4, Class::S);
        let solo = replay(&cfg, 7, &ReplayOpts::with_shards(2));
        let fed = replay(&cfg, 7, &ReplayOpts::with_shards(2).jobs(3).engines(2));
        assert_eq!(fed.events, 3 * solo.events);
        assert_eq!(fed.per_job.len(), 3);
        for &(job, m) in &fed.per_job {
            assert_eq!(m.events_ingested, solo.total.events_ingested, "job {job}");
            assert_eq!(m.hits, solo.total.hits, "job {job} hits");
            assert_eq!(m.misses, solo.total.misses, "job {job} misses");
            assert_eq!(
                m.resident_streams, solo.total.resident_streams,
                "job {job} streams"
            );
        }
        // Members concatenate in the per-shard view: 2 engines x 2 shards.
        assert_eq!(fed.per_shard.len(), 4);
        // One engine replays multi-job workloads too (namespaced keys)
        // with the same per-job rollups.
        let single = replay(&cfg, 7, &ReplayOpts::with_shards(2).jobs(3));
        assert_eq!(single.per_job, fed.per_job);
    }

    #[test]
    fn telemetry_replay_snapshots_mirror_the_counter_rollup() {
        let cfg = BenchmarkConfig::new(BenchId::Cg, 4, Class::S);
        let plain = replay(&cfg, 7, &ReplayOpts::with_shards(2));
        assert!(plain.telemetry.is_none(), "telemetry is opt-in");
        let opts = ReplayOpts::with_shards(2)
            .telemetry(true)
            .stats_every(Some(1));
        let r = replay(&cfg, 7, &opts);
        // Telemetry must not change what the engine computes.
        assert_eq!(r.total.hits, plain.total.hits);
        assert_eq!(r.total.misses, plain.total.misses);
        let snap = r.telemetry.as_ref().expect("telemetry enabled");
        assert_eq!(
            snap.counter("events_ingested"),
            Some(r.total.events_ingested)
        );
        assert_eq!(
            snap.gauge("resident_streams"),
            Some(r.total.resident_streams)
        );
        let h = snap.histogram("observe_batch_ns").expect("batch latency");
        assert!(h.count() > 0);
        // One cumulative capture per batch, ending at the full event
        // count; each capture's ingested prefix is complete.
        assert_eq!(r.intervals.len(), r.events.div_ceil(REPLAY_BATCH));
        let last = r.intervals.last().unwrap();
        assert_eq!(last.events, r.events);
        assert_eq!(
            last.snapshot.counter("events_ingested"),
            Some(r.total.events_ingested)
        );
        // A one-shard engine snapshots the same counters.
        let s = replay(&cfg, 7, &ReplayOpts { shards: 1, ..opts });
        assert_eq!(
            s.telemetry.unwrap().counter("events_ingested"),
            Some(r.total.events_ingested)
        );
    }

    #[test]
    fn policy_labels_match_bench_schema() {
        assert_eq!(BackpressurePolicy::Block.label(), "block");
        assert_eq!(BackpressurePolicy::Shed.label(), "shed");
    }
}
