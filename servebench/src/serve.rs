//! The three workloads, served through `FederatedClient` over
//! `PersistentEngine` workers: the path `mpp-runtime`'s `EngineHandle`
//! uses.
//!
//! A run sets up several times (synthesis, engine construction,
//! warm-up), then opens its window: whole passes over the workload's
//! observation sequence, each on a freshly built engine, as many as come
//! nearest the window's seconds. A pass is a closed loop of cycles: one
//! generating thread submits a cycle's batches through
//! `FederatedClient::observe_batch`, then forecasts the cycle's re-plan
//! set. Restarts are spread through every pass. The reference and the
//! checks run after the window.

use crate::alloc::live_bytes;
use crate::inputs::{synthesize, Inputs};
use crate::reference::{self, Capture, Forecast, Reference};
use crate::spans::{Spans, ROOT};
use crate::stats::{median, quantile};
use mpp_core::dpd::DpdConfig;
use mpp_engine::{
    DurabilityConfig, EngineClient, EngineConfig, EnsembleConfig, FederatedClient, FederatedEngine,
    FederationConfig, FlushPolicy, JobId, JobMetrics, Observation, PersistentEngine, RankId,
};
use mpp_nasbench::{paper_configs, BenchId, BenchmarkConfig, Class};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LU, 32 ranks, one job, DPD-only, 2 shards, no log.
    Lu32Ingest,
    /// The paper's 19 configurations as 19 interleaved jobs, standard
    /// ensemble, 2 shards.
    Table1Tenants,
    /// `Lu32Ingest` on 1 shard plus the observation log, a midpoint
    /// checkpoint and crash recovery.
    Lu32Durable,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Lu32Ingest,
        Workload::Table1Tenants,
        Workload::Lu32Durable,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lu32Ingest => "lu32-ingest",
            Workload::Table1Tenants => "table1-tenants",
            Workload::Lu32Durable => "lu32-durable",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated configurations, one tenant each.
    pub fn configs(self, class: Class) -> Vec<BenchmarkConfig> {
        match self {
            Workload::Table1Tenants => paper_configs()
                .into_iter()
                .map(|c| BenchmarkConfig::new(c.id, c.procs, class))
                .collect(),
            _ => vec![BenchmarkConfig::new(BenchId::Lu, 32, class)],
        }
    }

    /// Engine shards the workload is served with. Each shard is a
    /// worker thread, and `lu32-durable` adds the log-writer thread, so
    /// it gets one shard. The others get one shard per core, at most 2:
    /// with a single shard, one worker thread carries the whole load,
    /// and a busy phase of the host on its core swung whole runs by 30 %.
    pub fn shards(self) -> usize {
        match self {
            Workload::Lu32Durable => 1,
            _ => nproc().min(2),
        }
    }

    /// Most shards the workload may be served with, so that its engine
    /// threads (shards plus the log writer) do not exceed the cores.
    pub fn max_shards(self) -> usize {
        nproc().saturating_sub(usize::from(self.durable())).max(1)
    }

    /// The workload's challenger roster (empty: DPD only).
    pub fn ensemble(self) -> EnsembleConfig {
        match self {
            Workload::Table1Tenants => EnsembleConfig::standard(),
            _ => EnsembleConfig::default(),
        }
    }

    /// Whether the workload writes the observation log.
    pub fn durable(self) -> bool {
        self == Workload::Lu32Durable
    }

    /// Batches submitted per cycle, before the cycle's re-plan.
    fn batches_per_cycle(self) -> usize {
        match self {
            Workload::Table1Tenants => 1,
            _ => 2,
        }
    }

    /// Restarts per pass. A restore of `lu32-ingest`'s 96 streams takes
    /// tens of milliseconds, so it gets more of them.
    fn restarts(self) -> usize {
        match self {
            Workload::Lu32Ingest => 10,
            Workload::Table1Tenants => 5,
            Workload::Lu32Durable => 2,
        }
    }
}

/// Every setting of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Window length: the window holds the whole passes that come
    /// nearest it, at least one.
    pub seconds: f64,
    /// Record spans and measure the layers instead of end to end.
    pub trace: bool,
    /// Problem class of the simulated skeletons.
    pub class: Class,
    /// Engine shards; the workload's own count unless a scaling row
    /// asks for another.
    pub shards: usize,
    /// Observations per batch.
    pub batch: usize,
    /// Set-ups per run; `setup_s` is their [`SETUP_QUANTILE`].
    pub setups: usize,
    /// Observations the standalone layer measurements use.
    pub layer_events: usize,
    /// Directory for the log, snapshots and span files.
    pub out_dir: PathBuf,
}

impl Options {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, out_dir: PathBuf) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            class: Class::A,
            shards: workload.shards(),
            batch: 8192,
            setups: 5,
            layer_events: 1 << 21,
            out_dir,
        }
    }

    /// The member engine's configuration; `dir` enables the log.
    pub fn member_config(&self, dir: Option<&Path>) -> EngineConfig {
        let cfg = EngineConfig::with_shards(self.shards).with_ensemble(self.workload.ensemble());
        match dir {
            Some(dir) => {
                cfg.with_durability(DurabilityConfig::new(dir).with_flush(FlushPolicy::EveryBatch))
            }
            None => cfg,
        }
    }

    /// Durability directory of this run.
    pub fn wal_dir(&self) -> PathBuf {
        self.out_dir
            .join(format!("{}-{}", self.workload.name(), std::process::id()))
    }
}

/// Forecast depth: (sender, size) pairs per forecast, the paper's
/// `+1 … +5`.
pub const FORECAST_DEPTH: usize = 5;

/// One cycle of a pass: the observations `[start, end)` in batches,
/// then forecasts for `plan`.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// First observation of the cycle.
    pub start: usize,
    /// One past the last observation of the cycle.
    pub end: usize,
    /// `(job, rank)` pairs forecast after the cycle's batches.
    pub plan: Vec<(JobId, RankId)>,
}

/// Share of a batch's touched `(job, rank)` pairs that `table1-tenants`
/// forecasts after it: one in `STAGGER`, rotating with the batch.
/// Forecasting all of them (about 230 per batch) would leave the one or
/// two forecasts that wait behind the batch at about 0.7 % of all
/// samples, on the boundary p99 reads.
pub const STAGGER: u64 = 8;

/// Cuts the sequence into cycles and fixes each cycle's re-plan set.
/// `lu32-*` forecasts every rank of the job after every two batches;
/// `table1-tenants` forecasts, after every batch, the touched `(job,
/// rank)` pairs of its rotating share (see [`STAGGER`]), in first-touch
/// order.
pub fn plan_cycles(inputs: &Inputs, w: Workload, batch: usize) -> Vec<Cycle> {
    let n = inputs.events.len();
    let per = batch * w.batches_per_cycle();
    let mut cycles = Vec::with_capacity(n / per + 1);
    let all: Vec<(JobId, RankId)> = inputs.job_ranks();
    let mut start = 0;
    while start < n {
        let end = (start + per).min(n);
        let plan = match w {
            Workload::Table1Tenants => {
                let turn = cycles.len() as u64 % STAGGER;
                let mut plan: Vec<(JobId, RankId)> = Vec::new();
                for obs in &inputs.events[start..end] {
                    let jr = (obs.key.job, obs.key.rank);
                    let t = inputs.tenant_of(jr.0) as u64;
                    if (t * 7 + u64::from(jr.1)) % STAGGER == turn && !plan.contains(&jr) {
                        plan.push(jr);
                    }
                }
                plan
            }
            _ => all.clone(),
        };
        cycles.push(Cycle { start, end, plan });
        start = end;
    }
    cycles
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Traced runs: observations, batches and job legs submitted
    /// straight through the member's `EngineClient` (every other cycle).
    pub member_events: u64,
    /// Batches of those cycles.
    pub member_batches: u64,
    /// Job legs those batches made.
    pub member_legs: u64,
    /// Per cycle: (observations, ns from first submit to re-plan end,
    /// forecasts).
    pub cycles: Vec<(u32, u64, u32)>,
    /// Per cycle: ns from the last submit's return to the first reply.
    pub waits: Vec<u64>,
    /// Batches per cycle, parallel to `waits`.
    pub wait_batches: Vec<u32>,
    /// Every re-plan forecast's round trip, ns.
    pub forecasts: Vec<u64>,
    /// Whether each forecast was its cycle's first, parallel.
    pub first: Vec<bool>,
    /// Each restart: seconds from the restart call to the first answer.
    pub restarts: Vec<f64>,
    /// Batches submitted.
    pub batches: u64,
    /// Checks made.
    pub checked: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Failed checks.
    pub failed: u64,
}

/// The result of [`run`].
#[derive(Debug)]
pub struct Outcome {
    /// No check failed.
    pub correct: bool,
    /// Operations attempted: batches, forecasts, restarts, checks.
    pub attempted: u64,
    /// Operations that failed (failed checks; a restart or recovery
    /// that errs panics the run).
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Figures printed beside the metrics.
    pub diag: Vec<(String, f64)>,
    /// One message per failure.
    pub failures: Vec<String>,
}

/// Per-run context shared by the passes.
pub struct Ctx<'a> {
    /// The options of the run.
    pub opts: &'a Options,
    /// The inputs.
    pub inputs: &'a Inputs,
    /// The cycles of a pass.
    pub cycles: &'a [Cycle],
    /// Span recorder (off unless traced).
    pub spans: Spans,
    /// Measurements.
    pub rec: Recorder,
    /// Forecast scratch.
    pub out: Forecast,
    /// The latest snapshot a restart used (kept by traced runs for the
    /// standalone restore measurement).
    pub snapshot: Vec<u8>,
    /// Traced runs: the shard serving each `(job, rank)`, read from the
    /// live member.
    pub shard_of: HashMap<(JobId, RankId), usize>,
    /// Job-leg scratch of the traced run's direct submissions.
    pub legs: Vec<(JobId, Vec<Observation>)>,
}

fn federation_config(opts: &Options, dir: Option<&Path>) -> FederationConfig {
    FederationConfig::new(1, opts.shards).member_config(opts.member_config(dir))
}

fn build_engine(opts: &Options) -> FederatedEngine {
    let w = opts.workload;
    let dir = w.durable().then(|| opts.wal_dir());
    FederatedEngine::new(federation_config(opts, dir.as_deref()))
}

/// Reads every output the checks compare.
pub fn capture(client: &FederatedClient, inputs: &Inputs) -> Capture {
    let mut out = Vec::with_capacity(FORECAST_DEPTH);
    let forecasts = inputs
        .job_ranks()
        .into_iter()
        .map(|(job, rank)| {
            client.forecast_messages_for_job(job, rank, FORECAST_DEPTH, &mut out);
            out.clone()
        })
        .collect();
    Capture {
        jobs: client.job_metrics(),
        models: client.job_model_stats(),
        forecasts,
        periods: periods(client, inputs),
        probe_periods: Vec::new(),
    }
}

fn periods(client: &FederatedClient, inputs: &Inputs) -> Vec<Option<usize>> {
    inputs
        .streams()
        .into_iter()
        .map(|k| client.period_of(k))
        .collect()
}

/// End of the first cycle that reaches `num / den` of the sequence. A
/// pass checkpoints (`lu32-durable`) at the half and reads every
/// stream's period for the mid-pass equation (1) check at the third,
/// where LU's streams are locked at every size.
pub fn cycle_reaching(cycles: &[Cycle], num: usize, den: usize) -> usize {
    let n = cycles.last().map_or(0, |c| c.end);
    cycles
        .iter()
        .map(|c| c.end)
        .find(|&e| e * den >= n * num)
        .unwrap_or(n)
}

/// Snapshot → restore restart of a non-durable engine, timed from the
/// `restore` call to the restored engine's first forecast answer, and
/// checked against the engine before the restart. Returns the restored
/// engine; a restore that fails panics the run, since the engine just
/// wrote the snapshot itself.
fn restart(
    ctx: &mut Ctx<'_>,
    fed: FederatedEngine,
    client: FederatedClient,
    batch: u32,
) -> (FederatedEngine, FederatedClient) {
    let before = capture(&client, ctx.inputs);
    let te = Instant::now();
    let snapshot = fed.member(0).client().snapshot();
    ctx.spans
        .record("snapshot.encode", te, Instant::now(), ROOT, batch);
    if ctx.opts.trace {
        ctx.snapshot.clone_from(&snapshot);
    }
    drop(client);
    drop(fed);
    let first = ctx.inputs.job_ranks()[0];
    let t = Instant::now();
    let restored = PersistentEngine::restore(ctx.opts.member_config(None), &snapshot);
    let eng = restored.unwrap_or_else(|e| panic!("restore of the engine's own snapshot: {e}"));
    let fed = FederatedEngine::from_members(vec![eng]);
    let client = fed.client();
    client.forecast_messages_for_job(first.0, first.1, FORECAST_DEPTH, &mut ctx.out);
    let done = Instant::now();
    ctx.rec.restarts.push((done - t).as_secs_f64());
    ctx.spans.record("restart.restore", t, done, ROOT, batch);
    let after = capture(&client, ctx.inputs);
    let fails = reference::check_restart(&before, &after, &mut ctx.rec.checked);
    note_failures(&mut ctx.rec, fails);
    (fed, client)
}

/// Crash → `recover` restarts of a durable engine at the end of a pass,
/// each timed from the `recover` call to the first forecast answer and
/// checked against the engine before the crash and the events
/// `sync_wal` acknowledged.
fn recover(ctx: &mut Ctx<'_>, fed: FederatedEngine, client: FederatedClient) {
    let opts = ctx.opts;
    let w = opts.workload;
    let before = capture(&client, ctx.inputs);
    let acked = if fed.member(0).sync_wal() {
        fed.member(0).clock()
    } else {
        0
    };
    drop(client);
    drop(fed);
    let first = ctx.inputs.job_ranks()[0];
    for _ in 0..w.restarts() {
        let t = Instant::now();
        let recovered = FederatedEngine::recover(federation_config(opts, Some(&opts.wal_dir())));
        let (fed, report) =
            recovered.unwrap_or_else(|e| panic!("recovery from the engine's own log: {e}"));
        let client = fed.client();
        client.forecast_messages_for_job(first.0, first.1, FORECAST_DEPTH, &mut ctx.out);
        let done = Instant::now();
        ctx.rec.restarts.push((done - t).as_secs_f64());
        ctx.spans.record("restart.recover", t, done, ROOT, u32::MAX);
        let after = capture(&client, ctx.inputs);
        let fails = reference::check_recovery(
            &before,
            &after,
            report.events(),
            acked,
            &mut ctx.rec.checked,
        );
        note_failures(&mut ctx.rec, fails);
        if opts.trace {
            ctx.snapshot = fed.member(0).client().snapshot();
        }
    }
}

/// Runs one pass on `fed`: the cycles, with `restarts` snapshot →
/// restore restarts spread evenly through the pass (so a busy phase of
/// the host cannot cover all of them) or, on `lu32-durable`, a midpoint
/// checkpoint and crash recoveries at the end. Returns the outputs at
/// the end of the pass and, when `heap_baseline` is given, the engine's
/// heap per resident stream.
fn run_pass(
    ctx: &mut Ctx<'_>,
    fed: FederatedEngine,
    client: FederatedClient,
    heap_baseline: Option<usize>,
) -> (Capture, Option<f64>) {
    let opts = ctx.opts;
    let w = opts.workload;
    let cycles = ctx.cycles;
    let mut member = (w.durable() || opts.trace).then(|| fed.member(0).client());
    if opts.trace && ctx.shard_of.is_empty() {
        for (job, rank) in ctx.inputs.job_ranks() {
            ctx.shard_of
                .insert((job, rank), fed.member(0).shard_for_job(job, rank));
        }
    }
    let checkpoint_at = cycle_reaching(cycles, 1, 2);
    let probe = cycle_reaching(cycles, 1, 3);
    // Restart after cycles k·len/(restarts + 1), k = 1..=restarts.
    let restarts = if w.durable() { 0 } else { w.restarts() };
    let restart_after: Vec<usize> = (1..=restarts)
        .map(|k| k * cycles.len() / (restarts + 1))
        .filter(|&c| c > 0)
        .collect();
    let mut engine = Some((fed, client));
    let mut checkpointed = false;
    let mut probe_periods = Vec::new();
    for (ci, cycle) in cycles.iter().enumerate() {
        let (fed, client) = engine.as_ref().expect("an engine serves every cycle");
        let b = ci as u32;
        let t0 = Instant::now();
        let cid = ctx.spans.open("cycle", t0, ROOT, b);
        // Traced runs submit every other cycle straight through the
        // member's client, so both layers are timed under the same load.
        let direct = member.as_ref().filter(|_| opts.trace && ci % 2 == 1);
        let mut at = cycle.start;
        let mut batches = 0u32;
        while at < cycle.end {
            let end = (at + opts.batch).min(cycle.end);
            match direct {
                Some(m) => submit_legs(ctx, m, at..end, cid, b),
                None => {
                    let tb = Instant::now();
                    client.observe_batch(&ctx.inputs.events[at..end]);
                    if ctx.spans.on() {
                        ctx.spans
                            .record("federation.observe_batch", tb, Instant::now(), cid, b);
                    }
                }
            }
            batches += 1;
            if let (Some(m), true, false) = (&member, w.durable(), checkpointed) {
                if end >= checkpoint_at {
                    let tc = Instant::now();
                    m.checkpoint().expect("checkpoint write failed");
                    ctx.spans
                        .record("snapshot.checkpoint", tc, Instant::now(), cid, b);
                    checkpointed = true;
                }
            }
            at = end;
        }
        ctx.rec.batches += u64::from(batches);
        let submitted = Instant::now();
        for (k, &(job, rank)) in cycle.plan.iter().enumerate() {
            let tf = Instant::now();
            client.forecast_messages_for_job(job, rank, FORECAST_DEPTH, &mut ctx.out);
            let done = Instant::now();
            ctx.rec.forecasts.push((done - tf).as_nanos() as u64);
            ctx.rec.first.push(k == 0);
            if k == 0 {
                ctx.rec.waits.push((done - submitted).as_nanos() as u64);
                ctx.rec.wait_batches.push(batches);
            }
            let name = if k == 0 { "forecast.first" } else { "forecast" };
            ctx.spans.record(name, tf, done, cid, b);
        }
        if w.durable() {
            let ts = Instant::now();
            fed.member(0).sync_wal();
            ctx.spans.record("sync_wal", ts, Instant::now(), cid, b);
        }
        let done = Instant::now();
        ctx.spans.close(cid, done);
        ctx.rec.cycles.push((
            (cycle.end - cycle.start) as u32,
            (done - t0).as_nanos() as u64,
            cycle.plan.len() as u32,
        ));
        if cycle.end == probe {
            probe_periods = periods(client, ctx.inputs);
        }
        if restart_after.contains(&(ci + 1)) {
            drop(member.take());
            let (fed, client) = engine.take().expect("an engine serves every cycle");
            let (fed, client) = restart(ctx, fed, client, b);
            member = opts.trace.then(|| fed.member(0).client());
            engine = Some((fed, client));
        }
    }
    drop(member);
    let (fed, client) = engine.take().expect("an engine serves every cycle");
    let heap = heap_baseline.map(|base| {
        let m = client.metrics_total();
        let bytes = live_bytes().saturating_sub(base) as f64;
        bytes / m.resident_streams.max(1) as f64
    });
    let mut end = capture(&client, ctx.inputs);
    end.probe_periods = probe_periods;
    if w.durable() {
        recover(ctx, fed, client);
    }
    (end, heap)
}

/// Submits the observations `range` through the member's own client, as
/// `FederatedClient::observe_batch` would: a single-job batch as it is,
/// a mixed one as job legs in first-appearance order. Each
/// `EngineClient::observe_batch` call is a span; the partition is one
/// more.
fn submit_legs(
    ctx: &mut Ctx<'_>,
    member: &EngineClient,
    range: std::ops::Range<usize>,
    cid: u32,
    b: u32,
) {
    let batch = &ctx.inputs.events[range];
    let tp = Instant::now();
    let single = batch.iter().all(|o| o.key.job == batch[0].key.job);
    let n = if single {
        1
    } else {
        job_legs(batch, &mut ctx.legs)
    };
    ctx.spans.record("partition", tp, Instant::now(), cid, b);
    for i in 0..n {
        let leg = if single { batch } else { &ctx.legs[i].1[..] };
        let t = Instant::now();
        member.observe_batch(leg);
        ctx.spans
            .record("persistent.observe_batch", t, Instant::now(), cid, b);
    }
    ctx.rec.member_events += batch.len() as u64;
    ctx.rec.member_batches += 1;
    ctx.rec.member_legs += n as u64;
}

/// Splits `batch` by job in first-appearance order into the front of
/// `legs`, reusing its buffers; returns the number of legs.
pub fn job_legs(batch: &[Observation], legs: &mut Vec<(JobId, Vec<Observation>)>) -> usize {
    let mut active = 0;
    for obs in batch {
        let slot = match legs[..active].iter().position(|(j, _)| *j == obs.key.job) {
            Some(i) => i,
            None => {
                if active == legs.len() {
                    legs.push((obs.key.job, Vec::new()));
                }
                legs[active].0 = obs.key.job;
                legs[active].1.clear();
                active += 1;
                active - 1
            }
        };
        legs[slot].1.push(*obs);
    }
    active
}

fn note_failures(rec: &mut Recorder, fails: Vec<String>) {
    rec.failed += fails.len() as u64;
    rec.failures.extend(fails);
}

/// One set-up: inputs, cycles, a warmed-up engine and its client.
struct SetUp {
    inputs: Inputs,
    cycles: Vec<Cycle>,
    engine: (FederatedEngine, FederatedClient),
    /// Heap the engine took while being built.
    construction: usize,
    /// Seconds from the start of the set-up to the warmed-up engine.
    secs: f64,
}

/// Synthesises the inputs, plans the cycles, builds the engine and
/// warms it up with one query round trip through every shard lane.
fn set_up(opts: &Options) -> SetUp {
    let t0 = Instant::now();
    let inputs = synthesize(&opts.workload.configs(opts.class), opts.seed);
    let cycles = plan_cycles(&inputs, opts.workload, opts.batch);
    let before = live_bytes();
    let fed = build_engine(opts);
    let client = fed.client();
    client.metrics_total();
    SetUp {
        construction: live_bytes().saturating_sub(before),
        secs: t0.elapsed().as_secs_f64(),
        inputs,
        cycles,
        engine: (fed, client),
    }
}

/// Quantile of the run's set-up times that `setup_s` reports (with five
/// set-ups, the second fastest): a set-up that a busy phase of the host
/// slows does not move it.
pub const SETUP_QUANTILE: f64 = 0.25;

/// Runs the workload: the first set-ups, the window of passes, the
/// reference and the checks, (traced) the standalone layer
/// measurements, and the remaining set-ups. Every set-up runs with none
/// of the run's inputs, engines or captures alive: the first half of
/// them before the
/// window, each dropped before the next (the last one's engine serves
/// the first pass), the rest at the end, after everything else is
/// dropped. Split so, one busy phase of the host does not cover them
/// all.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    std::fs::create_dir_all(&opts.out_dir).expect("cannot create the output directory");
    let mut setup_s = Vec::with_capacity(opts.setups);
    let mut synth_s = Vec::with_capacity(opts.setups);
    let mut first: Option<SetUp> = None;
    for _ in 0..opts.setups.div_ceil(2).max(1) {
        drop(first.take());
        if w.durable() {
            let _ = std::fs::remove_dir_all(opts.wal_dir());
        }
        let s = set_up(opts);
        setup_s.push(s.secs);
        synth_s.push(s.inputs.synth_s);
        first = Some(s);
    }
    let SetUp {
        inputs,
        cycles,
        engine,
        construction,
        ..
    } = first.expect("a run sets up at least once");
    let forecasts_per_pass: usize = cycles.iter().map(|c| c.plan.len()).sum();
    let mut ctx = Ctx {
        opts,
        inputs: &inputs,
        cycles: &cycles,
        spans: Spans::new(opts.trace, 4 * (cycles.len() + forecasts_per_pass)),
        rec: Recorder::default(),
        out: Vec::with_capacity(FORECAST_DEPTH),
        snapshot: Vec::new(),
        shard_of: HashMap::new(),
        legs: Vec::new(),
    };
    // Reserve the recording buffers so the heap figure counts the
    // engine alone: what the first pass adds, plus what building the
    // engine took.
    ctx.rec.cycles.reserve(4 * cycles.len());
    ctx.rec.waits.reserve(4 * cycles.len());
    ctx.rec.wait_batches.reserve(4 * cycles.len());
    ctx.rec.forecasts.reserve(4 * forecasts_per_pass);
    ctx.rec.first.reserve(4 * forecasts_per_pass);
    ctx.rec.restarts.reserve(64);
    let baseline = live_bytes().saturating_sub(construction);

    let window = Instant::now();
    let mut passes: Vec<Capture> = Vec::new();
    let mut heap = None;
    let mut engine = Some(engine);
    loop {
        let (fed, client) = engine.take().unwrap_or_else(|| {
            let fed = build_engine(opts);
            let client = fed.client();
            (fed, client)
        });
        let (pass, h) = run_pass(&mut ctx, fed, client, passes.is_empty().then_some(baseline));
        heap = heap.or(h);
        passes.push(pass);
        // Another pass only if the window then ends nearer its seconds.
        let elapsed = window.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 / 2.0 >= opts.seconds {
            break;
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    if w.durable() {
        let _ = std::fs::remove_dir_all(opts.wal_dir());
    }

    let dpd_cfg = DpdConfig::default();
    let t_ref = Instant::now();
    let reference: Reference = reference::compute(
        &inputs,
        &dpd_cfg,
        FORECAST_DEPTH,
        cycle_reaching(&cycles, 1, 3),
    );
    let ref_s = t_ref.elapsed().as_secs_f64();
    for pass in &passes {
        let fails = reference::check_pass(
            &inputs,
            &reference,
            pass,
            &dpd_cfg,
            w.ensemble().enabled(),
            &mut ctx.rec.checked,
        );
        note_failures(&mut ctx.rec, fails);
    }
    drop(reference);

    let sum = |f: fn(&JobMetrics) -> u64| -> u64 {
        passes
            .iter()
            .flat_map(|p| p.jobs.iter().map(move |(_, m)| f(m)))
            .sum()
    };
    let (events, hits, misses) = (
        sum(|m| m.events_ingested),
        sum(|m| m.hits),
        sum(|m| m.misses),
    );
    let rec = &ctx.rec;
    let stats = Slices::of(rec);
    let cycle_events: u64 = rec.cycles.iter().map(|c| u64::from(c.0)).sum();
    let cycle_ns: u64 = rec.cycles.iter().map(|c| c.1).sum();
    let fc_us: Vec<f64> = rec.forecasts.iter().map(|&ns| ns as f64 / 1e3).collect();
    let mut diag: Vec<(String, f64)> = vec![
        ("passes".into(), passes.len() as f64),
        ("window_s".into(), window_s),
        (
            "ingest_window_events_per_s".into(),
            cycle_events as f64 * 1e9 / cycle_ns as f64,
        ),
        ("forecast_p50_us_all".into(), quantile(&fc_us, 0.50)),
        ("forecast_p99_us_all".into(), quantile(&fc_us, 0.99)),
        ("slices".into(), stats.count as f64),
        ("cycles".into(), rec.cycles.len() as f64),
        ("forecast_samples".into(), fc_us.len() as f64),
        (
            "forecast_first_share".into(),
            rec.first.iter().filter(|&&f| f).count() as f64 / fc_us.len().max(1) as f64,
        ),
        (
            "engine_hit_rate".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("restarts".into(), rec.restarts.len() as f64),
        ("shards".into(), opts.shards as f64),
        ("reference_s".into(), ref_s),
        ("batches".into(), rec.batches as f64),
        ("checks".into(), rec.checked as f64),
    ];
    let metrics = if opts.trace {
        diag.push(("traced_ingest_events_per_s".into(), stats.ingest));
        crate::layers::measure(&mut ctx, &passes, &mut diag)
    } else {
        vec![
            ("ingest_events_per_s", stats.ingest, "events/s"),
            ("forecast_p50_us", stats.p50_us, "us"),
            ("forecast_p99_us", stats.p99_us, "us"),
            (
                "recover_s",
                quantile(&ctx.rec.restarts, SLICE_QUANTILE),
                "s",
            ),
            (
                "hits_per_event",
                hits as f64 / events.max(1) as f64,
                "ratio",
            ),
            ("heap_bytes_per_stream", heap.unwrap_or(f64::NAN), "bytes"),
            ("setup_s", f64::NAN, "s"),
        ]
    };
    drop(passes);
    drop(ctx.spans);
    drop(ctx.legs);
    let rec = ctx.rec;
    drop(inputs);
    drop(cycles);
    while setup_s.len() < opts.setups {
        let s = set_up(opts);
        setup_s.push(s.secs);
        synth_s.push(s.inputs.synth_s);
        drop(s);
        if w.durable() {
            let _ = std::fs::remove_dir_all(opts.wal_dir());
        }
    }
    let mut metrics = metrics;
    for m in metrics.iter_mut() {
        match m.0 {
            "setup_s" => m.1 = quantile(&setup_s, SETUP_QUANTILE),
            "nasbench.synth_s" => m.1 = quantile(&synth_s, SETUP_QUANTILE),
            _ => {}
        }
    }
    diag.push(("setups".into(), setup_s.len() as f64));
    diag.push(("setup_s_median".into(), median(&setup_s)));
    diag.push(("setup_s_max".into(), quantile(&setup_s, 1.0)));
    let attempted =
        rec.batches + rec.forecasts.len() as u64 + rec.restarts.len() as u64 + rec.checked;
    Outcome {
        correct: rec.failures.is_empty(),
        attempted,
        failed: rec.failed,
        metrics,
        diag,
        failures: rec.failures,
    }
}

/// Observations per slice: the run's time line is cut into slices of
/// whole cycles holding at least this many observations, and each
/// timing metric is a statistic per slice, summarised over slices.
pub const SLICE_EVENTS: u64 = 1 << 16;

/// Per-run timing statistics over slices.
#[derive(Debug, Clone, Copy)]
pub struct Slices {
    /// Number of slices.
    pub count: usize,
    /// Observations per second at the [`SLICE_QUANTILE`] of slice
    /// ns/observation (the median slice).
    pub ingest: f64,
    /// [`SLICE_QUANTILE`] of the slices' median forecast round trip, µs.
    pub p50_us: f64,
    /// [`SLICE_QUANTILE`] of the slices' 99th-percentile round trip, µs.
    pub p99_us: f64,
}

impl Slices {
    /// Cuts `rec`'s cycles into slices and summarises them.
    pub fn of(rec: &Recorder) -> Self {
        let mut ns_per_event = Vec::new();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let (mut events, mut ns, mut samples) = (0u64, 0u64, Vec::new());
        let mut f = 0usize;
        for (i, c) in rec.cycles.iter().enumerate() {
            events += u64::from(c.0);
            ns += c.1;
            let n = c.2 as usize;
            samples.extend(rec.forecasts[f..f + n].iter().map(|&x| x as f64 / 1e3));
            f += n;
            if events >= SLICE_EVENTS || i + 1 == rec.cycles.len() {
                if events > 0 {
                    ns_per_event.push(ns as f64 / events as f64);
                }
                if !samples.is_empty() {
                    p50.push(quantile(&samples, 0.50));
                    p99.push(quantile(&samples, 0.99));
                }
                (events, ns) = (0, 0);
                samples.clear();
            }
        }
        Slices {
            count: ns_per_event.len(),
            ingest: 1e9 / quantile(&ns_per_event, SLICE_QUANTILE),
            p50_us: quantile(&p50, SLICE_QUANTILE),
            p99_us: quantile(&p99, SLICE_QUANTILE),
        }
    }
}

/// Quantile over slices (and over restarts, for `recover_s`) that every
/// timing metric reports: the median, so that neither busy nor unusually
/// quiet stretches of the host moves it while they cover less than half
/// the run. A low quantile read a run's quietest tenth, and some runs
/// had such stretches while others did not.
pub const SLICE_QUANTILE: f64 = 0.5;
