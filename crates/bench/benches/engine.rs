//! Engine ingest/serve throughput: the serving-layer numbers the
//! ROADMAP's production-scale goal regresses against.
//!
//! Two outputs:
//!
//! * criterion-style stdout lines for `observe_batch` and
//!   `predict_batch` per shard count;
//! * `BENCH_engine.json` at the workspace root — events/sec per shard
//!   count measured directly with `Instant`, so later changes have a
//!   fixed perf trajectory file to diff (in the
//!   reproducible-benchmarking spirit of Hunold & Carpen-Amarie:
//!   fixed workload, fixed seeds, machine parallelism recorded
//!   alongside the numbers, best-of-`RUNS` to damp scheduler noise).
//!
//! The JSON also carries a `churn` section measured on a bare
//! [`Shard`] — eviction-heavy ingest throughput, per-event observe
//! latency percentiles, and `evict_lru` cost at two resident-set sizes
//! (which must stay flat: victim selection reads a bounded LRU window,
//! never a full sort) — plus two embedded baselines, `baseline_pr4`
//! (pre-slab) and `baseline_prior` (the previous committed run), so
//! every delta is auditable in one file.
//!
//! `--smoke` (used by CI) runs every measurement path with tiny
//! parameters and does **not** rewrite `BENCH_engine.json`: it keeps
//! the bench code compiling and executing without publishing noisy
//! numbers.

use criterion::{black_box, criterion_group, Criterion, Throughput};
use mpp_core::dpd::DpdConfig;
use mpp_engine::{
    BackpressurePolicy, DurabilityConfig, EngineConfig, EnsembleConfig, FederatedEngine,
    FederationConfig, FlushPolicy, Observation, PersistentEngine, Query, RebalanceConfig, Shard,
    StreamKey, StreamKind, TelemetryConfig,
};
use std::time::{Duration, Instant};

/// Ranks in the synthetic workload.
const RANKS: u32 = 192;
/// Events per rank per batch (spread over sender/size/tag streams).
const EVENTS_PER_RANK: usize = 96;
/// Shard counts measured for the JSON trajectory.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Observe-lane capacities measured for the bounded-ingest saturation
/// trajectory (at `BOUNDED_SHARDS` shards, `Block` policy).
const QUEUE_CAPS: [usize; 3] = [1, 8, 64];
/// Shard count used for the bounded-lane measurements.
const BOUNDED_SHARDS: usize = 4;
/// Member counts measured for the federation trajectory.
const MEMBER_COUNTS: [usize; 3] = [1, 2, 4];
/// Interleaved job copies in the federation workload (fixed across
/// member counts so the event stream is identical and only the member
/// count varies).
const FED_JOBS: u32 = 4;
/// Shards per federation member (kept small so total worker threads
/// stay proportional to the member count).
const FED_SHARDS: usize = 2;
/// Member count for the rebalance A/B (the smallest federation where
/// placement matters).
const REBALANCE_MEMBERS: usize = 2;
/// Timed batches per measurement run.
const TIMED_BATCHES: usize = 6;
/// Measurement runs per shard count; best-of damps noise. On
/// the shared 1-core measurement container, scheduler interference
/// regularly costs a run 20–40%, so the best-of needs enough attempts
/// to catch a quiet slice (interleaved A/B runs against the PR 4
/// binary put the true single-shard speedup at ~1.5–1.7×).
const RUNS: usize = 5;

/// Measurement sizing, full vs `--smoke` (CI) mode.
struct Params {
    /// Best-of runs per measurement.
    runs: usize,
    /// Timed batches per run.
    timed_batches: usize,
    /// Batches sampled for the per-event latency percentiles.
    latency_batches: usize,
    /// `evict_lru` rounds per resident-set size.
    evict_rounds: usize,
    /// Resident-set sizes at which `evict_lru` cost is measured; the
    /// claim under test is that the two numbers are about equal.
    resident_sizes: [usize; 2],
    /// Whether to (re)write `BENCH_engine.json`.
    write_json: bool,
}

impl Params {
    fn full() -> Self {
        Params {
            runs: RUNS,
            timed_batches: TIMED_BATCHES,
            latency_batches: 48,
            evict_rounds: 48,
            resident_sizes: [4096, 32768],
            write_json: true,
        }
    }

    fn smoke() -> Self {
        Params {
            runs: 1,
            timed_batches: 1,
            latency_batches: 8,
            evict_rounds: 4,
            resident_sizes: [512, 2048],
            write_json: false,
        }
    }
}

/// PR 4's `BENCH_engine.json` numbers (1-core container), embedded so
/// the current file always carries the before/after pair. Auditing a
/// perf claim should not require digging through git history.
const BASELINE_PR4: &str = r#"{
    "cores": 1,
    "note": "PR 4 (pre-slab stream tables), 1-core container, measured as a multi-batch window average in a quiet window; interleaved same-window A/B reruns of the PR 4 binary during PR 5 reproduced these numbers (1.0-1.17 Melem/s single-shard), so they are a fair pre-slab reference for the min-estimator numbers above; multi-shard deltas are scheduling noise, not scaling evidence",
    "results": [
      {"mode": "scoped", "shards": 1, "events_per_sec": 1149737},
      {"mode": "persistent", "shards": 1, "events_per_sec": 1181987},
      {"mode": "scoped", "shards": 2, "events_per_sec": 1196580},
      {"mode": "persistent", "shards": 2, "events_per_sec": 1212480},
      {"mode": "scoped", "shards": 4, "events_per_sec": 1356313},
      {"mode": "persistent", "shards": 4, "events_per_sec": 1349455},
      {"mode": "scoped", "shards": 8, "events_per_sec": 1395347},
      {"mode": "persistent", "shards": 8, "events_per_sec": 1427730}
    ],
    "bounded_saturation": {"1": 1329926, "8": 1402365, "64": 1376452},
    "federation": {"1": 1132222, "2": 1100836, "4": 1111457}
  }"#;

/// PR 4 single-shard persistent rate, for the headline speedup ratio.
const BASELINE_PR4_PERSISTENT_1SHARD: f64 = 1_181_987.0;

/// The previous committed run's numbers (same workload and
/// estimators), kept for the figures this bench still measures. That
/// run predates the dense-counter detector and was taken on a 1-core
/// container, so the ratios against it mix detector, core-count and
/// engine changes. Its `churn` figures went through the old scoped
/// engine's single-shard path, which drove one `Shard` directly — the
/// unit the churn arms now drive.
const BASELINE_PRIOR: &str = r#"{
    "cores": 1,
    "note": "previous committed run: written with the durable observation log, before the dense-counter detector, on a 1-core container; ratios against it are not attributable to one change",
    "results": [
      {"shards": 1, "queue_cap": null, "backpressure": "block", "events_per_sec": 1589893},
      {"shards": 2, "queue_cap": null, "backpressure": "block", "events_per_sec": 1594422},
      {"shards": 4, "queue_cap": null, "backpressure": "block", "events_per_sec": 2521766},
      {"shards": 8, "queue_cap": null, "backpressure": "block", "events_per_sec": 2718095},
      {"shards": 4, "queue_cap": 1, "backpressure": "block", "events_per_sec": 2617129},
      {"shards": 4, "queue_cap": 8, "backpressure": "block", "events_per_sec": 2619448},
      {"shards": 4, "queue_cap": 64, "backpressure": "block", "events_per_sec": 2607573}
    ],
    "federation": {"1": 1766637, "2": 1852971, "4": 1752650},
    "rebalance": {"off": 2069938, "on": 1793716},
    "churn": {"ttl_churn_events_per_sec": 1614474, "observe_latency_ns_per_event": {"p50": 1117, "p99": 1331}, "evict_lru_ns_per_victim": {"4096": 313, "32768": 487}},
    "telemetry_overhead": {"off": 1647009, "on": 1661509},
    "ensemble_overhead": {"dpd_only": 1617476, "standard_roster": 1149205},
    "wal_overhead": {"off": 1274647, "every_batch": 1197013, "every_n_64": 1135704, "on_rotate": 1121127}
  }"#;

/// The previous committed run's unbounded ingest rates, indexed like
/// [`SHARD_COUNTS`], for the per-shard-count ratios.
const BASELINE_PRIOR_RESULTS: [f64; 4] = [1_589_893.0, 1_594_422.0, 2_521_766.0, 2_718_095.0];

/// Deterministic multi-rank workload: every rank carries three periodic
/// attribute streams with rank-dependent periods, interleaved
/// round-robin across ranks so batch partitioning is exercised.
fn synthetic_batch() -> Vec<Observation> {
    let mut out = Vec::with_capacity(RANKS as usize * EVENTS_PER_RANK);
    for step in 0..EVENTS_PER_RANK / 3 {
        for rank in 0..RANKS {
            let sp = 2 + (rank as usize % 7);
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Sender),
                ((step + rank as usize) % sp) as u64,
            ));
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Size),
                [512u64, 4096, 1 << 20][(step + rank as usize) % 3],
            ));
            out.push(Observation::new(
                StreamKey::new(rank, StreamKind::Tag),
                (step % 2) as u64,
            ));
        }
    }
    out
}

/// Turns the fastest completed batch into an events/sec rate. On the
/// shared 1-core measurement container a single long timing window
/// regularly loses 20–40% to scheduler interference; the fastest
/// single batch is the robust estimator of what the hardware can do
/// (the classic min-latency statistic — interference only ever adds
/// time). Every direct measurement here uses it; `runs_best_of ×
/// timed_batches` in the JSON is the total sample count behind each
/// number.
fn best_batch_rate(events: usize, batch_times: impl Iterator<Item = Duration>) -> f64 {
    let fastest = batch_times.min().expect("at least one timed batch");
    events as f64 / fastest.as_secs_f64().max(1e-12)
}

/// Directly measured ingest rate (events/sec). The closing metrics
/// round-trip queues behind every batch, so the timed window covers
/// completed work, not just enqueued work.
fn measure_persistent(shards: usize, batch: &[Observation], tb: usize) -> f64 {
    measure_persistent_cfg(EngineConfig::with_shards(shards), batch, tb)
}

/// Ingest rate with bounded observe lanes (`Block` policy): the
/// saturation throughput the backpressure subsystem sustains at a given
/// per-shard capacity.
fn measure_bounded(shards: usize, cap: usize, batch: &[Observation], tb: usize) -> f64 {
    measure_persistent_cfg(
        EngineConfig::with_shards(shards).with_queue_cap(cap),
        batch,
        tb,
    )
}

fn measure_persistent_cfg(cfg: EngineConfig, batch: &[Observation], tb: usize) -> f64 {
    let engine = PersistentEngine::new(cfg);
    let client = engine.client();
    client.observe_batch(batch); // warm: slots, interners, leg buffers
    client.metrics_total(); // barrier: warm-up fully applied
                            // The per-batch metrics round-trip queues behind the batch, so each
                            // timed slice covers completed work, not just enqueued work.
    best_batch_rate(
        batch.len(),
        (0..tb).map(|_| {
            let start = Instant::now();
            client.observe_batch(batch);
            black_box(client.metrics_total().events_ingested);
            start.elapsed()
        }),
    )
}

/// Durable (or, with `flush: None`, log-free) single-shard persistent
/// ingest rate. Unlike the per-batch measurements, this times the
/// *whole* window and closes it with a `sync_wal` durability barrier:
/// the observation log is written by a dedicated thread, so a
/// per-batch min estimator would let the fsync cost escape the timed
/// slice entirely. Whole-window timing charges the durable arm for
/// every byte it promises is on disk; the off arm is timed identically
/// (its barrier returns immediately) so the A/B stays symmetric. Each
/// call logs into a fresh directory, removed afterwards.
fn measure_wal(flush: Option<FlushPolicy>, batch: &[Observation], tb: usize) -> f64 {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpp-bench-wal-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let cfg = match flush {
        Some(f) => {
            EngineConfig::with_shards(1).with_durability(DurabilityConfig::new(&dir).with_flush(f))
        }
        None => EngineConfig::with_shards(1),
    };
    let engine = PersistentEngine::new(cfg);
    let client = engine.client();
    client.observe_batch(batch); // warm: slots, interners, leg buffers
    client.metrics_total();
    engine.sync_wal(); // warm-up frames on disk before the window opens
    let start = Instant::now();
    for _ in 0..tb {
        client.observe_batch(batch);
    }
    black_box(client.metrics_total().events_ingested);
    engine.sync_wal();
    let rate = (batch.len() * tb) as f64 / start.elapsed().as_secs_f64().max(1e-12);
    drop(client);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    rate
}

/// Ingests `batch` into `shard` as one leg stamped after `*clock`, then
/// runs the throttled sweep — the per-leg step a shard worker takes.
fn shard_leg(shard: &mut Shard, batch: &[Observation], clock: &mut u64) {
    shard.observe_all_at(batch, *clock);
    *clock += batch.len() as u64;
    shard.maybe_sweep(*clock);
}

/// Eviction-heavy single-shard ingest (events/sec): the TTL is far
/// shorter than the gap between a stream's consecutive events, so every
/// observation lazily restarts its stream cold and sweeps continually
/// reclaim slots — the slab's free list and head-pop sweep under
/// maximum churn.
fn measure_ttl_churn(batch: &[Observation], tb: usize) -> f64 {
    let ttl = (batch.len() / 8).max(1) as u64;
    let mut shard = Shard::with_ttl(DpdConfig::default(), Some(ttl));
    let mut clock = 0;
    shard_leg(&mut shard, batch, &mut clock); // warm the slab and interners
    best_batch_rate(
        batch.len(),
        (0..tb).map(|_| {
            let start = Instant::now();
            shard_leg(&mut shard, batch, &mut clock);
            start.elapsed()
        }),
    )
}

/// Observe latency percentiles over `batches` steady-state batches
/// into one shard, reported as ns/event. Each sample is a **per-batch
/// mean** (whole-batch wall time / events): per-event timing would cost
/// more than the work being timed, so single-event tail spikes within a
/// batch average out — what the percentiles expose is batch-to-batch
/// jitter, and the JSON labels them as such. Latency — not just
/// throughput — is what "cheap enough for the MPI critical path" means.
fn measure_latency_percentiles(batch: &[Observation], batches: usize) -> (f64, f64) {
    let mut shard = Shard::new(DpdConfig::default());
    let mut clock = 0;
    shard_leg(&mut shard, batch, &mut clock); // warm
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            shard_leg(&mut shard, batch, &mut clock);
            start.elapsed().as_secs_f64() / batch.len() as f64 * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let p = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    (p(0.50), p(0.99))
}

/// Small-footprint detector config for the resident-set-size sweep
/// (tens of thousands of streams must fit comfortably in memory).
fn churn_dpd() -> DpdConfig {
    DpdConfig {
        window: 32,
        max_lag: 8,
        ..DpdConfig::default()
    }
}

/// Cost of one `evict_lru` victim (ns) at a given resident-set size.
/// Each round evicts `victims` streams and refills with fresh ranks so
/// the resident count stays ~constant; only the evict calls are timed.
/// With the intrusive LRU this must be independent of `resident` — the
/// old collect-and-sort implementation was O(resident log resident).
fn measure_evict_lru_ns(resident: usize, victims: usize, rounds: usize) -> f64 {
    let mut shard = Shard::new(churn_dpd());
    let mut clock = 0;
    let populate: Vec<Observation> = (0..resident as u32)
        .map(|r| Observation::new(StreamKey::new(r, StreamKind::Sender), 1))
        .collect();
    shard_leg(&mut shard, &populate, &mut clock);
    let mut next_rank = resident as u32;
    let mut refill = Vec::with_capacity(victims);
    let mut fastest = Duration::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        let removed = shard.evict_lru(victims);
        fastest = fastest.min(start.elapsed());
        assert_eq!(removed, victims, "resident set large enough to evict from");
        refill.clear();
        refill.extend(
            (0..victims as u32)
                .map(|i| Observation::new(StreamKey::new(next_rank + i, StreamKind::Sender), 1)),
        );
        next_rank += victims as u32;
        shard_leg(&mut shard, &refill, &mut clock);
    }
    fastest.as_secs_f64() * 1e9 / victims as f64
}

/// The federation workload: the synthetic batch re-keyed into
/// `FED_JOBS` interleaved job namespaces.
fn federated_batch() -> Vec<Observation> {
    let base = synthetic_batch();
    let mut out = Vec::with_capacity(base.len() * FED_JOBS as usize);
    for obs in &base {
        for job in 0..FED_JOBS {
            out.push(Observation::new(
                StreamKey::for_job(job, obs.key.rank, obs.key.kind),
                obs.value,
            ));
        }
    }
    out
}

/// Federated ingest rate (events/sec) at `members` member engines,
/// `FED_SHARDS` shards each, over the fixed `FED_JOBS`-job workload.
fn measure_federated(members: usize, batch: &[Observation], tb: usize) -> f64 {
    let fed = FederatedEngine::new(FederationConfig {
        members,
        member: EngineConfig::with_shards(FED_SHARDS),
        rebalance: None,
    });
    let client = fed.client();
    client.observe_batch(batch); // warm: slots, interners, leg buffers
    client.metrics_total(); // barrier: warm-up fully applied
    best_batch_rate(
        batch.len(),
        (0..tb).map(|_| {
            let start = Instant::now();
            client.observe_batch(batch);
            black_box(client.metrics_total().events_ingested);
            start.elapsed()
        }),
    )
}

/// The rebalance workload: a skewed hot/cold job mix — job `j` keeps
/// every `(j + 1)`-th event of the synthetic batch, so job 0 is ~4×
/// hotter than job 3 and hash placement starts imbalanced.
fn skewed_federated_batch() -> Vec<Observation> {
    let base = synthetic_batch();
    let mut out = Vec::new();
    for (i, obs) in base.iter().enumerate() {
        for job in 0..FED_JOBS {
            if i % (job as usize + 1) == 0 {
                out.push(Observation::new(
                    StreamKey::for_job(job, obs.key.rank, obs.key.kind),
                    obs.value,
                ));
            }
        }
    }
    out
}

/// Ingest rate over the skewed hot/cold mix at [`REBALANCE_MEMBERS`]
/// members, rebalancer off or on. The on arm closes a rebalance epoch
/// after every timed batch *inside* the timing window, so its number
/// carries the full cost of metric collection, planning, and any
/// migrations the plan triggers.
fn measure_rebalance(rebalance: bool, batch: &[Observation], tb: usize) -> f64 {
    let fed = FederatedEngine::new(FederationConfig {
        members: REBALANCE_MEMBERS,
        member: EngineConfig::with_shards(FED_SHARDS),
        rebalance: rebalance.then_some(RebalanceConfig {
            headroom: 10,
            max_moves_per_epoch: 2,
            min_dwell_epochs: 1,
        }),
    });
    let client = fed.client();
    client.observe_batch(batch); // warm: slots, interners, leg buffers
    client.metrics_total(); // barrier: warm-up fully applied
    best_batch_rate(
        batch.len(),
        (0..tb).map(|_| {
            let start = Instant::now();
            client.observe_batch(batch);
            if rebalance {
                black_box(fed.rebalance_epoch().moved);
            }
            black_box(client.metrics_total().events_ingested);
            start.elapsed()
        }),
    )
}

fn best_of(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| f()).fold(f64::MIN, f64::max)
}

fn bench_observe_batch(c: &mut Criterion) {
    let batch = synthetic_batch();
    let mut g = c.benchmark_group("engine_observe_batch");
    g.throughput(Throughput::Elements(batch.len() as u64));
    for shards in SHARD_COUNTS {
        g.bench_function(format!("persistent/{shards}shard"), |b| {
            let engine = PersistentEngine::new(EngineConfig::with_shards(shards));
            let client = engine.client();
            client.observe_batch(&batch);
            client.metrics_total();
            b.iter(|| {
                client.observe_batch(black_box(&batch));
                black_box(client.metrics_total().events_ingested)
            });
        });
    }
    g.finish();
}

fn bench_predict_batch(c: &mut Criterion) {
    let batch = synthetic_batch();
    let queries: Vec<Query> = (0..RANKS)
        .flat_map(|r| {
            StreamKind::ALL
                .into_iter()
                .flat_map(move |k| (1..=5).map(move |h| Query::new(StreamKey::new(r, k), h)))
        })
        .collect();
    let mut g = c.benchmark_group("engine_predict_batch");
    g.throughput(Throughput::Elements(queries.len() as u64));
    for shards in [1usize, 8] {
        g.bench_function(format!("persistent/{shards}shard"), |b| {
            let engine = PersistentEngine::new(EngineConfig::with_shards(shards));
            let client = engine.client();
            for _ in 0..4 {
                client.observe_batch(&batch);
            }
            client.metrics_total();
            let mut out = Vec::new();
            b.iter(|| {
                client.predict_batch(black_box(&queries), &mut out);
                black_box(out.iter().filter(|p| p.is_some()).count())
            });
        });
    }
    g.finish();
}

/// Measures the trajectory and (in full mode) writes it to
/// `BENCH_engine.json` at the workspace root. Schema: each `results`
/// entry carries the shard count plus the backpressure knobs
/// (`"queue_cap"`: per-shard lane bound or `null` for unbounded;
/// `"backpressure"`: full-lane policy label); `bounded_saturation`
/// records the
/// `Block`-mode saturation throughput per lane capacity at
/// `BOUNDED_SHARDS` shards; `federation` records the multi-engine
/// ingest trajectory — events/sec per member count over a fixed
/// `FED_JOBS`-job interleaved workload (`FED_SHARDS` shards per
/// member); `rebalance` records the load-aware rebalancer A/B — the
/// fixed skewed hot/cold mix ingested with the rebalancer off and on
/// (epoch closed every batch, so the on arm bounds the cost from
/// above); `churn` records the eviction-heavy numbers (TTL-churn
/// ingest, per-event latency percentiles, `evict_lru` ns/victim at two
/// resident-set sizes — flat means O(victims), not O(resident));
/// `telemetry_overhead` records the single-shard telemetry off/on A/B
/// (interleaved arms; the ≤3% ingest-overhead budget the telemetry
/// layer is held to); `ensemble_overhead` records the same A/B shape
/// for the DPD-only default vs the standard champion/challenger roster
/// — the honest price of online model selection, not a near-zero
/// budget; `baseline_pr4` embeds the pre-slab PR 4 numbers and
/// `speedup_vs_baseline_pr4` the single-shard before/after ratio;
/// `baseline_prior` embeds the previous committed run and
/// `ratio_vs_baseline_prior` the unbounded ingest ratio per shard
/// count.
fn write_bench_json(p: &Params) {
    let batch = synthetic_batch();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries: Vec<String> = Vec::new();
    let mut ratios: Vec<String> = Vec::new();
    let mut persistent_rates = Vec::new();
    for (shards, prior) in SHARD_COUNTS.into_iter().zip(BASELINE_PRIOR_RESULTS) {
        let rate = best_of(p.runs, || {
            measure_persistent(shards, &batch, p.timed_batches)
        });
        println!(
            "engine ingest {shards:>2} shard(s): {rate:>10.0} ev/s ({:+.1}% vs prior)",
            100.0 * (rate / prior - 1.0)
        );
        entries.push(format!(
            "    {{\"shards\": {shards}, \"queue_cap\": null, \
             \"backpressure\": \"block\", \"events_per_sec\": {rate:.0}}}"
        ));
        ratios.push(format!("    \"{shards}\": {:.3}", rate / prior));
        persistent_rates.push(rate);
    }
    let policy = BackpressurePolicy::Block.label();
    let mut saturation: Vec<String> = Vec::new();
    for cap in QUEUE_CAPS {
        let rate = best_of(p.runs, || {
            measure_bounded(BOUNDED_SHARDS, cap, &batch, p.timed_batches)
        });
        println!(
            "engine ingest {BOUNDED_SHARDS:>2} shard(s), lane cap {cap:>3} ({policy}): \
             {rate:>10.0} ev/s"
        );
        entries.push(format!(
            "    {{\"shards\": {BOUNDED_SHARDS}, \"queue_cap\": {cap}, \
             \"backpressure\": \"{policy}\", \"events_per_sec\": {rate:.0}}}"
        ));
        saturation.push(format!("    \"{cap}\": {rate:.0}"));
    }
    let fed_batch = federated_batch();
    let mut federation: Vec<String> = Vec::new();
    for members in MEMBER_COUNTS {
        let rate = best_of(p.runs, || {
            measure_federated(members, &fed_batch, p.timed_batches)
        });
        println!(
            "engine ingest federation {members} member(s) x {FED_SHARDS} shard(s), \
             {FED_JOBS} jobs: {rate:>10.0} ev/s"
        );
        federation.push(format!("    \"{members}\": {rate:.0}"));
    }

    // Rebalance A/B: the fixed skewed hot/cold mix with the load-aware
    // rebalancer off and on, interleaved arms like the other A/Bs. The
    // on arm pays for an epoch close (metrics broadcast + plan + any
    // migrations) every batch — the worst-case cadence, far hotter than
    // production epochs.
    let skewed = skewed_federated_batch();
    let mut rb = (0.0f64, 0.0f64); // (off, on)
    for _ in 0..p.runs {
        rb.0 = rb.0.max(measure_rebalance(false, &skewed, p.timed_batches));
        rb.1 = rb.1.max(measure_rebalance(true, &skewed, p.timed_batches));
    }
    println!(
        "engine ingest rebalance A/B {REBALANCE_MEMBERS} member(s) x {FED_SHARDS} shard(s), \
         skewed {FED_JOBS} jobs: off {:>10.0} ev/s, on {:>10.0} ev/s ({:+.2}% overhead)",
        rb.0,
        rb.1,
        100.0 * (rb.0 / rb.1.max(1e-12) - 1.0)
    );

    // Telemetry A/B: the identical single-shard workload with the
    // telemetry layer off and on. One shard keeps the per-event
    // instrumentation cost undiluted by parallelism, so the measured
    // overhead is the worst case. The interleaved off/on pairing inside
    // each best-of run keeps container drift from biasing one arm.
    let mut tel = (0.0f64, 0.0f64); // (off, on)
    for _ in 0..p.runs {
        let on_cfg = EngineConfig::with_shards(1).with_telemetry(TelemetryConfig::enabled());
        tel.0 = tel.0.max(measure_persistent(1, &batch, p.timed_batches));
        tel.1 = tel
            .1
            .max(measure_persistent_cfg(on_cfg, &batch, p.timed_batches));
    }
    let overhead_pct = |(off, on): (f64, f64)| 100.0 * (off / on.max(1e-12) - 1.0);
    println!(
        "engine ingest  1 shard(s), telemetry A/B: \
         off {:>10.0} ev/s, on {:>10.0} ev/s ({:+.2}% overhead)",
        tel.0,
        tel.1,
        overhead_pct(tel)
    );

    // Ensemble A/B: the identical single-shard workload with the
    // DPD-only default vs the standard champion/challenger roster
    // (last-value, stride, markov-1). Unlike telemetry, the ensemble
    // is real extra work — every challenger observes and scores each
    // event — so this records the *price* of model selection rather
    // than holding it to a near-zero budget. Same interleaved arms and
    // min estimator as the telemetry A/B.
    let mut ens = (0.0f64, 0.0f64); // (off, on)
    for _ in 0..p.runs {
        let on_cfg = EngineConfig::with_shards(1).with_ensemble(EnsembleConfig::standard());
        ens.0 = ens.0.max(measure_persistent(1, &batch, p.timed_batches));
        ens.1 = ens
            .1
            .max(measure_persistent_cfg(on_cfg, &batch, p.timed_batches));
    }
    println!(
        "engine ingest  1 shard(s), ensemble A/B: \
         dpd-only {:>10.0} ev/s, standard roster {:>10.0} ev/s ({:+.2}% overhead)",
        ens.0,
        ens.1,
        overhead_pct(ens)
    );

    // WAL A/B: the identical single-shard workload with the
    // observation log off and on, one arm per flush policy. Whole
    // windows closed by a sync_wal barrier (see `measure_wal`), arms
    // interleaved within each best-of run. every_batch is the honest
    // price of per-batch durability; every_n(64) and on_rotate show
    // what relaxing the fsync cadence buys back.
    const WAL_ARMS: [(&str, Option<FlushPolicy>); 4] = [
        ("off", None),
        ("every_batch", Some(FlushPolicy::EveryBatch)),
        ("every_n_64", Some(FlushPolicy::EveryN(64))),
        ("on_rotate", Some(FlushPolicy::OnRotate)),
    ];
    let mut wal = [0.0f64; WAL_ARMS.len()];
    for _ in 0..p.runs {
        for (slot, &(_, flush)) in wal.iter_mut().zip(WAL_ARMS.iter()) {
            *slot = slot.max(measure_wal(flush, &batch, p.timed_batches));
        }
    }
    for (&(label, _), &rate) in WAL_ARMS.iter().zip(wal.iter()) {
        println!(
            "engine ingest  1 shard(s), wal A/B ({label}): {rate:>10.0} ev/s \
             ({:+.2}% overhead vs off)",
            100.0 * (wal[0] / rate.max(1e-12) - 1.0)
        );
    }

    // Churn section: eviction-heavy ingest, latency percentiles, and
    // the evict_lru cost sweep over resident-set sizes.
    let churn_rate = best_of(p.runs, || measure_ttl_churn(&batch, p.timed_batches));
    println!("shard ingest churn ttl: {churn_rate:>10.0} ev/s");
    let (p50, p99) = measure_latency_percentiles(&batch, p.latency_batches);
    println!("shard observe latency per event: p50 {p50:.0} ns, p99 {p99:.0} ns");
    const LRU_VICTIMS: usize = 16;
    let mut evict_entries: Vec<String> = Vec::new();
    let mut evict_costs: Vec<f64> = Vec::new();
    for resident in p.resident_sizes {
        let ns = best_of(p.runs, || {
            measure_evict_lru_ns(resident, LRU_VICTIMS, p.evict_rounds)
        });
        println!("shard evict_lru({LRU_VICTIMS}) at {resident:>6} resident: {ns:>8.0} ns/victim");
        evict_entries.push(format!("      \"{resident}\": {ns:.0}"));
        evict_costs.push(ns);
    }

    if !p.write_json {
        println!("--smoke: all measurement paths exercised, BENCH_engine.json left untouched");
        return;
    }

    let single = persistent_rates[0];
    let best_multi = persistent_rates[1..]
        .iter()
        .copied()
        .fold(f64::MIN, f64::max);
    // Below 4 cores the multi-shard "speedup" is mostly scheduling and
    // cache-locality noise, not scaling evidence — say so in the
    // artifact rather than leaving a misleading baseline.
    let note = if cores < 4 {
        ",\n  \"note\": \"measured on fewer than 4 cores; \
         multi_shard_speedup is not scaling evidence, re-baseline on >=4 cores\""
    } else {
        ""
    };
    let json = format!(
        "{{\n  \"bench\": \"engine_observe_batch\",\n  \"ranks\": {RANKS},\n  \
         \"events_per_batch\": {},\n  \"timed_batches\": {},\n  \
         \"runs_best_of\": {},\n  \"cores\": {cores},\n  \
         \"method\": \"events_per_sec = batch events / fastest completed batch \
         (incl. a metrics barrier) over runs_best_of x timed_batches \
         samples; the min estimator is robust to the shared container's scheduler \
         interference, which only ever adds time\",\n  \"results\": [\n{}\n  ],\n  \
         \"bounded_saturation\": {{\n{}\n  }},\n  \
         \"federation\": {{\n    \"jobs\": {FED_JOBS},\n    \"shards_per_member\": {FED_SHARDS},\n    \
         \"events_per_sec\": {{\n{}\n    }}\n  }},\n  \
         \"rebalance\": {{\n    \"members\": {REBALANCE_MEMBERS},\n    \
         \"shards_per_member\": {FED_SHARDS},\n    \"jobs\": {FED_JOBS},\n    \
         \"workload\": \"skewed hot/cold mix: job j keeps every (j+1)-th event, so job 0 \
         is ~4x hotter than job 3 and hash placement starts imbalanced\",\n    \
         \"events_per_sec\": {{\"off\": {:.0}, \"on\": {:.0}}},\n    \
         \"overhead_pct\": {:.2},\n    \
         \"method\": \"same min estimator and interleaved off/on arms as the other A/Bs; \
         the on arm closes a rebalance epoch (metrics broadcast + pure plan + any quiesce \
         and migrate legs) after every timed batch inside the timing window — a per-batch \
         cadence far hotter than production epochs, so this bounds the steady-state cost \
         from above\"\n  }},\n  \
         \"churn\": {{\n    \"unit\": \"one Shard driven directly (observe_all_at + maybe_sweep per \
         batch; evict_lru on the shard)\",\n    \
         \"ttl_churn_events_per_sec\": {churn_rate:.0},\n    \
         \"observe_latency_ns_per_event\": {{\"p50\": {p50:.0}, \"p99\": {p99:.0}, \
         \"batches\": {}, \"granularity\": \"percentiles of per-batch means \
         (whole-batch wall time / events) — batch-to-batch jitter, not \
         single-event tails\"}},\n    \
         \"evict_lru_ns_per_victim\": {{\n      \"victims\": {LRU_VICTIMS},\n      \
         \"rounds\": {},\n      \"by_resident_streams\": {{\n{}\n      }},\n      \
         \"cost_ratio_large_vs_small\": {:.3},\n      \
         \"note\": \"per-victim cost must stay ~flat as residents grow: victims come \
         from a bounded LRU-head window, never a full collect-and-sort (which scaled \
         with the resident set); residual growth is key-map cache pressure\"\n    \
         }}\n  }},\n  \
         \"telemetry_overhead\": {{\n    \"shards\": 1,\n    \
         \"events_per_sec\": {{\"off\": {:.0}, \"on\": {:.0}}},\n    \
         \"overhead_pct\": {:.2},\n    \
         \"budget_pct\": 3.0,\n    \
         \"method\": \"same fixed workload and min estimator as results, 1 shard \
         (per-event instrumentation cost undiluted by parallelism); off/on arms \
         interleaved within each best-of run so container drift cannot bias one arm; \
         overhead_pct = off_rate/on_rate - 1; the instrumented hot path costs one \
         clock pair and one bucketed record_n per shard-batch (per-batch means, \
         never per-event clock reads) and must stay within budget_pct\"\n  }},\n  \
         \"ensemble_overhead\": {{\n    \"shards\": 1,\n    \
         \"roster\": [\"dpd\", \"last-value\", \"stride\", \"markov1\"],\n    \
         \"events_per_sec\": {{\"dpd_only\": {:.0}, \"standard_roster\": {:.0}}},\n    \
         \"overhead_pct\": {:.2},\n    \
         \"method\": \"same fixed workload, interleaved arms and min estimator as \
         telemetry_overhead; the on arm runs EnsembleConfig::standard() (3 \
         always-predicting challengers observing and scoring every event on top of \
         the DPD bank), so overhead_pct is the honest price of online model \
         selection, not a near-zero instrumentation budget\"\n  }},\n  \
         \"wal_overhead\": {{\n    \"shards\": 1,\n    \"cores\": {cores},\n    \
         \"events_per_sec\": {{\"off\": {:.0}, \"every_batch\": {:.0}, \
         \"every_n_64\": {:.0}, \"on_rotate\": {:.0}}},\n    \
         \"overhead_pct\": {{\"every_batch\": {:.2}, \"every_n_64\": {:.2}, \
         \"on_rotate\": {:.2}}},\n    \
         \"method\": \"same fixed workload as results, 1 shard, observation log off \
         vs on per flush policy; arms interleaved within each best-of run and each \
         durable arm logs into a fresh directory; whole-window timing (all timed \
         batches + a closing sync_wal durability barrier, best window across runs) \
         rather than the per-batch min estimator, because the log is written by a \
         dedicated thread and a per-batch minimum would let the fsync cost escape \
         the timed slice; overhead_pct = off_rate/on_rate - 1\"\n  }},\n  \
         \"baseline_pr4\": {BASELINE_PR4},\n  \
         \"speedup_vs_baseline_pr4\": {{\n    \"persistent_1shard\": {:.3}\n  }},\n  \
         \"baseline_prior\": {BASELINE_PRIOR},\n  \
         \"ratio_vs_baseline_prior\": {{\n{}\n  }},\n  \
         \"best_multi_shard_speedup\": {:.3}{note}\n}}\n",
        batch.len(),
        p.timed_batches,
        p.runs,
        entries.join(",\n"),
        saturation.join(",\n"),
        federation.join(",\n"),
        rb.0,
        rb.1,
        100.0 * (rb.0 / rb.1.max(1e-12) - 1.0),
        p.latency_batches,
        p.evict_rounds,
        evict_entries.join(",\n"),
        evict_costs[1] / evict_costs[0].max(1e-12),
        tel.0,
        tel.1,
        overhead_pct(tel),
        ens.0,
        ens.1,
        overhead_pct(ens),
        wal[0],
        wal[1],
        wal[2],
        wal[3],
        overhead_pct((wal[0], wal[1])),
        overhead_pct((wal[0], wal[2])),
        overhead_pct((wal[0], wal[3])),
        single / BASELINE_PR4_PERSISTENT_1SHARD,
        ratios.join(",\n"),
        best_multi / single.max(1e-12),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_observe_batch, bench_predict_batch);

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        // CI mode: exercise every bench path quickly (criterion groups
        // with tiny sampling + all JSON measurements) without
        // publishing noisy numbers over the committed trajectory.
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(20))
            .measurement_time(Duration::from_millis(60));
        bench_observe_batch(&mut c);
        bench_predict_batch(&mut c);
        write_bench_json(&Params::smoke());
    } else {
        benches();
        write_bench_json(&Params::full());
    }
}
