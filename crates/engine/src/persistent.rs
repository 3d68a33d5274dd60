//! Persistent shard workers: the engine's execution mode.
//!
//! A serving layer ingests forever, so the engine keeps one
//! **long-lived worker thread per shard**, each owning its [`Shard`]
//! outright and fed over a crossbeam channel:
//!
//! ```text
//!  EngineClient ──sender[0]──▶ worker 0 (owns Shard 0)
//!      │    └────sender[1]──▶ worker 1 (owns Shard 1)   ...
//!      └◀─── reply lane (epoch-stamped) ◀── workers
//! ```
//!
//! * **Lock-free submission.** There is no engine mutex anywhere:
//!   clients partition batches and push commands into per-shard
//!   channels. Observes are fire-and-forget. A query is a closure the
//!   shard's worker runs on its shard; it carries a clone of the
//!   client's private reply sender plus an **epoch** (a per-client
//!   sequence number), and the worker sends the boxed result back
//!   with that epoch. The client skips replies of older epochs, so a
//!   reply can never be attributed to the wrong request even after an
//!   aborted collection. A query fails with a [`WorkerGone`] naming
//!   the first asked shard whose worker is gone; a dead shard never
//!   fails a query that waits only on healthy ones.
//! * **Ordering.** Channels are FIFO per sender, and all streams of a
//!   rank hash to one shard, so a client always observes its own
//!   writes: a query submitted after an observe of the same rank sees
//!   that observe. Different clients' commands interleave arbitrarily —
//!   exactly the guarantee (and non-guarantee) the old mutex gave.
//! * **One allocation per leg.** `observe_batch` counts each shard's
//!   share of the batch first, then allocates every leg once, at
//!   exactly that size; the worker that applies a leg frees it. A
//!   client keeps no event buffer between calls, so its footprint does
//!   not depend on the batches it sent or on how far the workers lag.
//! * **Eviction.** With [`EngineConfig::ttl`] set, legs carry per-event
//!   stamps drawn from **per-job atomic clocks** in a shared registry: a
//!   batch reserves one contiguous stamp range per job it touches (one
//!   `fetch_add` per job, not per event) and assigns the stamps in batch
//!   order. Every job therefore ages only under its *own* traffic — a
//!   chatty tenant can never expire a quiet tenant's streams (the
//!   cross-tenant TTL bug the per-job time domains fix; see the
//!   [`Shard`](crate::shard) docs). Queries against a TTL engine carry
//!   the queried job's current clock as `now`. Each worker sweeps its
//!   shard after every batch it receives; idle shards may hold expired
//!   slots until their next command — or until
//!   [`EngineClient::sweep_expired`] forces a broadcast sweep, which
//!   ships the registry's current job clocks so every shard's per-job
//!   watermarks catch up. With *multiple concurrent clients* and a TTL,
//!   stamps are allocated before the channel send, so a stream's exact
//!   expiry point follows command-arrival order rather than stamp
//!   order — per-stream predictions stay well-formed (streams are
//!   single-writer by rank), but which side of the TTL boundary a
//!   racing gap lands on is scheduling-dependent, exactly like the
//!   observe/observe races the old mutex design had.
//! * **Bounded lanes and backpressure.** With
//!   [`EngineConfig::observe_queue_cap`] set, every shard's command
//!   lane is a *bounded* channel: a slow shard can hold at most `cap`
//!   queued commands instead of growing without limit. When a lane is
//!   full, [`EngineConfig::backpressure`] decides:
//!   [`BackpressurePolicy::Block`] (default) parks the submitting
//!   client until the worker drains — every event is still delivered,
//!   so results stay bit-identical to unbounded ingestion
//!   (`tests/backpressure.rs`); [`BackpressurePolicy::Shed`] drops the
//!   full lane's leg and counts every lost event. Pressure is
//!   observable per shard (`queue_high_water`, `send_blocked`,
//!   `shed_events` in [`ShardMetrics`]) and per call (the
//!   [`ObserveOutcome`] returned by [`EngineClient::observe_batch`]).
//!   Queries share the lane but always block and are never shed.
//! * **Failure detection.** A shard worker that dies (panic, induced
//!   exit, failed spawn) closes its lane; clients surface that as a
//!   clear [`WorkerGone`] error (or a panic carrying its message on the
//!   panicking paths) instead of silently dropping events or hanging on
//!   the reply lane — a blocked `Block`-mode send wakes with the error
//!   too, because channel disconnection wakes parked senders.
//! * **Shutdown on drop.** Workers exit when every sender to their
//!   channel is gone. Dropping the last [`PersistentEngine`] /
//!   [`EngineClient`] clone closes all channels and joins all workers —
//!   no explicit shutdown call, no leaked threads (stress-tested in
//!   `tests/stress.rs`).
//!
//! ## The `Relaxed` clock contract
//!
//! [`PersistentEngine::clock`] is an `AtomicU64` advanced with
//! `fetch_add(Relaxed)` and read with `load(Relaxed)`. Relaxed suffices
//! because the clock is a *stamp allocator*, not a synchronisation
//! point: (a) `fetch_add` is atomic, so concurrent batches always
//! receive disjoint stamp ranges; (b) a client's own operations are
//! ordered by its thread's program order, so the `now` it loads is
//! never smaller than any stamp it has already assigned; (c) event
//! *visibility* between threads is provided by the channels' internal
//! locking, never by the clock. A reader that observes a slightly stale
//! clock merely issues a query with a slightly older `now` — which is
//! indistinguishable from having submitted that query earlier, an
//! ordering that was always allowed between concurrent clients.
//!
//! Equivalence with driving one `DpdPredictor` per stream sequentially —
//! including across eviction-and-reload — is property-tested in
//! `tests/persistence.rs`.

use crate::config::{shard_of, shard_of_key, BackpressurePolicy, EngineConfig};
use crate::metrics::{
    merge_job_model_rollups, merge_job_rollups, merge_model_stats, EngineMetrics, JobMetrics,
    ModelStats, ShardMetrics,
};
use crate::oplog::{self, WalWriter};
use crate::shard::Shard;
use crate::snapshot::{
    decode_engine_for, decode_job_for, encode_engine, encode_job, EngineSnapshot, JobSnapshot,
    SnapshotError, StreamState,
};
use crate::types::{JobId, Observation, Query, RankId, StreamKey, DEFAULT_JOB};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use fxhash::FxHashMap;
use mpp_telemetry::{FlightEvent, FlightKind, FlightRecorder, Histogram, TelemetrySnapshot};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Error surfaced when a shard worker's lane is found closed — the
/// worker thread panicked, was induced to exit, or the engine is being
/// torn down while commands are still being submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerGone {
    /// Shard whose worker is gone.
    pub shard: usize,
}

impl std::fmt::Display for WorkerGone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine shard worker {} is gone (its thread exited or panicked)",
            self.shard
        )
    }
}

impl std::error::Error for WorkerGone {}

/// Error returned by [`PersistentEngine::try_new`] when a shard worker
/// thread cannot be spawned.
#[derive(Debug)]
pub struct SpawnError {
    /// Shard whose worker failed to spawn.
    pub shard: usize,
    /// The underlying OS error.
    pub source: std::io::Error,
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failed to spawn engine shard worker {}: {}",
            self.shard, self.source
        )
    }
}

impl std::error::Error for SpawnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// What [`PersistentEngine::recover`] rebuilt, and from where.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Events carried in by the restored snapshot (its clock
    /// watermark); zero when recovery started from an empty engine.
    pub snapshot_events: u64,
    /// Events replayed live from the observation-log tail past the
    /// snapshot watermark.
    pub wal_events: u64,
    /// Snapshot files that failed validation (corrupt, torn, wrong
    /// magic) and were skipped in favour of an older one.
    pub snapshots_skipped: u32,
    /// Whether the log had a torn or corrupt tail that was truncated
    /// back to its last valid frame (also recorded as a
    /// `wal_truncated` flight event when telemetry is on).
    pub wal_truncated: bool,
}

impl RecoveryReport {
    /// Total events the recovered engine holds (its clock).
    pub fn events(&self) -> u64 {
        self.snapshot_events + self.wal_events
    }
}

/// Why [`PersistentEngine::recover`] could not rebuild an engine.
/// Corrupt artifacts are *not* errors — they fall back (older
/// snapshot, truncated log); these are the conditions with no
/// documented fallback.
#[derive(Debug)]
pub enum RecoverError {
    /// The filesystem failed underneath the durability directory.
    Io(std::io::Error),
    /// A snapshot decoded cleanly but was taken under an incompatible
    /// configuration — recovering *around* it would silently serve
    /// different semantics, so this surfaces instead.
    Config(SnapshotError),
    /// The log's oldest surviving frame starts past what the best
    /// snapshot covers: the prefix in between is gone (files deleted
    /// out from under the retention policy).
    MissingPrefix {
        /// Clock the best usable snapshot reaches.
        covered: u64,
        /// First stamp the surviving log resumes at.
        log_starts_at: u64,
    },
    /// A shard worker died while the log tail was being replayed.
    Replay(WorkerGone),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O error: {e}"),
            RecoverError::Config(e) => write!(f, "snapshot rejects this config: {e}"),
            RecoverError::MissingPrefix {
                covered,
                log_starts_at,
            } => write!(
                f,
                "unrecoverable gap: snapshots cover events up to {covered} \
                 but the log resumes at {log_starts_at}"
            ),
            RecoverError::Replay(e) => write!(f, "log replay failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            RecoverError::Config(e) => Some(e),
            RecoverError::Replay(e) => Some(e),
            RecoverError::MissingPrefix { .. } => None,
        }
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What happened to one `observe_batch` submission under the engine's
/// backpressure policy. With unbounded lanes or `Block` every event is
/// enqueued; only `Shed` can report dropped events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserveOutcome {
    /// Events handed to shard workers (they will be ingested).
    pub enqueued: u64,
    /// Events dropped because their shard's bounded lane was full
    /// (`Shed` policy only).
    pub shed: u64,
}

impl ObserveOutcome {
    /// Whether every event of the batch was enqueued.
    pub fn complete(&self) -> bool {
        self.shed == 0
    }
}

/// Per-shard submission-side counters. These live on the client side of
/// the lanes (workers can't see sends that blocked or legs that were
/// shed), shared by all clients through `Inner` and merged into the
/// shard's [`ShardMetrics`] snapshot when metrics are read.
#[derive(Default)]
struct LaneStats {
    queue_high_water: AtomicU64,
    send_blocked: AtomicU64,
    shed_events: AtomicU64,
    /// High-water mark since the last epoch read
    /// ([`PersistentEngine::take_epoch_queue_high_water`]); unlike
    /// `queue_high_water` this one resets, so epochs see their own
    /// pressure rather than an all-time maximum. Sampled on observe
    /// legs only — queries ride the same lane but are re-plan-rate,
    /// not ingest pressure, and must not inflate the capacity signal.
    epoch_high_water: AtomicU64,
}

impl LaneStats {
    /// Samples the lane length after an observe-leg enqueue into both
    /// the all-time and the per-epoch high-water marks.
    fn note_observe_high_water(&self, len: u64) {
        self.queue_high_water.fetch_max(len, Ordering::Relaxed);
        self.epoch_high_water.fetch_max(len, Ordering::Relaxed);
    }
}

/// An observe leg: either raw events (no TTL: stamps are not needed
/// per-event) or events stamped with their engine-time index.
enum Leg {
    Plain(Vec<Observation>),
    Stamped(Vec<(Observation, u64)>),
}

impl Leg {
    /// Events carried by this leg.
    fn len(&self) -> usize {
        match self {
            Leg::Plain(events) => events.len(),
            Leg::Stamped(events) => events.len(),
        }
    }

    /// Job of the leg's first event — the attribution used for lane
    /// flight events. Legs are per-shard and may interleave jobs; the
    /// first event's job is the best single attribution available
    /// without per-job sub-legs.
    fn first_job(&self) -> JobId {
        match self {
            Leg::Plain(events) => events.first().map_or(DEFAULT_JOB, |o| o.key.job),
            Leg::Stamped(events) => events.first().map_or(DEFAULT_JOB, |(o, _)| o.key.job),
        }
    }
}

/// A query as it crosses the lane: a closure over the worker's shard
/// whose result travels back boxed.
type ShardFn = Box<dyn FnOnce(&mut Shard) -> Box<dyn Any + Send> + Send>;

/// One command in a shard worker's queue.
enum ShardCmd {
    /// Fire-and-forget batch leg. `now` is engine time after the whole
    /// batch; the worker frees the leg once it has applied it.
    /// `sent_at` is set only when telemetry is enabled: the worker turns
    /// it into the leg's `queue_wait_ns` sample on drain (submit→drain,
    /// so a `Block`-mode park on a full lane is included in the wait).
    Observe {
        leg: Leg,
        now: u64,
        sent_at: Option<Instant>,
    },
    /// Synchronous request: the worker runs `run` on its shard and
    /// answers on `reply` with the boxed result, echoing `epoch` and
    /// its shard id.
    Query {
        epoch: u64,
        reply: Sender<Reply>,
        run: ShardFn,
    },
    /// Test support: sleep for the given duration before processing
    /// each subsequent command (zero turns throttling off). Lets tests
    /// make a shard deterministically slow to fill its bounded lane.
    Throttle(Duration),
    /// Test support: exit the worker loop immediately, abandoning any
    /// commands still queued behind this one — observably identical to
    /// the worker thread dying.
    Exit,
}

/// Epoch-stamped worker answer: the boxed result of one query.
struct Reply {
    epoch: u64,
    shard: u32,
    result: Box<dyn Any + Send>,
}

/// Engine-level (client-side) telemetry: what the shard workers cannot
/// see. Present only when [`EngineConfig::telemetry`] is enabled.
struct EngineTelemetry {
    /// Wall time a `Block`-mode observe submission spent parked on a
    /// full lane (one sample per blocked send).
    send_block_ns: Histogram,
    /// Client-side flight ring: backpressure blocks/sheds and
    /// worker-gone sightings, stamped with engine time at submission.
    flight: Mutex<FlightRecorder>,
    /// Last-words slots, one per shard: a worker that exits its loop
    /// (orderly shutdown or an induced kill) parks its final telemetry
    /// snapshot here so [`EngineClient::telemetry`] can still report a
    /// dead shard's history. A hard panic skips the slot — the
    /// worker-side ring dies with the thread, but the client-side ring
    /// above still records the `WorkerGone` sighting.
    morgue: Arc<Vec<Mutex<Option<TelemetrySnapshot>>>>,
}

impl EngineTelemetry {
    fn push_flight(&self, ev: FlightEvent) {
        self.flight.lock().unwrap().push(ev);
    }
}

/// One unit of work for the dedicated log-writer thread.
enum WalMsg {
    /// Append a frame: `obs` is a private copy of one submitted batch,
    /// stamped `[base, base + obs.len())` on the global clock. The
    /// writer frees the copy once it is appended.
    Frame { base: u64, obs: Vec<Observation> },
    /// Force pending frames to stable storage, then acknowledge — the
    /// barrier behind [`PersistentEngine::sync_wal`].
    Sync(Sender<()>),
}

/// Log-writer telemetry, shared between the writer thread and the
/// clients that export it. Updated regardless of whether the
/// telemetry layer is enabled (plain relaxed atomics); exported only
/// through [`EngineClient::telemetry`].
#[derive(Default)]
struct WalCounters {
    frames: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    /// Events replayed from the log tail by the last recovery.
    recovered_events: AtomicU64,
    /// Appends or fsyncs the writer thread lost to filesystem errors
    /// (each also logged to stderr once) — nonzero means the log has a
    /// hole and recovery will stop at it.
    io_errors: AtomicU64,
    /// Fsync latency, one sample per fsync.
    flush_ns: Histogram,
}

/// The durability hookup carried by `Inner` when
/// [`EngineConfig::durability`] is set.
struct WalState {
    /// Frame lane into the writer thread.
    tx: Sender<WalMsg>,
    counters: Arc<WalCounters>,
}

/// The dedicated log-writer loop: drains frames off the observe path
/// and appends them through [`WalWriter`] (rotation + flush policy).
/// Exits when every sender is gone, flushing whatever is pending
/// first.
fn wal_writer_loop(mut writer: WalWriter, rx: Receiver<WalMsg>, counters: Arc<WalCounters>) {
    let mut reported = false;
    while let Ok(msg) = rx.recv() {
        match msg {
            WalMsg::Frame { base, obs } => match writer.append(base, &obs) {
                Ok(stats) => {
                    counters.frames.fetch_add(1, Ordering::Relaxed);
                    counters.bytes.fetch_add(stats.bytes, Ordering::Relaxed);
                    if stats.synced {
                        counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                        counters.flush_ns.record(stats.sync_ns);
                    }
                }
                Err(e) => {
                    counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    if !reported {
                        eprintln!("mpp-engine WAL append failed (log has a hole): {e}");
                        reported = true;
                    }
                }
            },
            WalMsg::Sync(ack) => {
                match writer.sync() {
                    Ok(Some(ns)) => {
                        counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                        counters.flush_ns.record(ns);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        counters.io_errors.fetch_add(1, Ordering::Relaxed);
                        if !reported {
                            eprintln!("mpp-engine WAL fsync failed: {e}");
                            reported = true;
                        }
                    }
                }
                let _ = ack.send(());
            }
        }
    }
    // Shutdown flush: nothing acknowledged durable is lost to a clean
    // drop, whatever the policy.
    if let Ok(Some(ns)) = writer.sync() {
        counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        counters.flush_ns.record(ns);
    }
}

/// Shared, thread-safe state: config, per-shard senders, the global
/// engine-time clock, and the worker handles joined on drop.
struct Inner {
    cfg: EngineConfig,
    senders: Vec<Sender<ShardCmd>>,
    workers: Vec<JoinHandle<()>>,
    /// Durable-log hookup; `None` without [`EngineConfig::durability`].
    wal: Option<WalState>,
    /// The log-writer thread, joined on drop after `wal`'s sender is
    /// gone.
    wal_writer: Option<JoinHandle<()>>,
    /// Submission-side backpressure counters, one per shard lane.
    lanes: Vec<LaneStats>,
    /// Engine time: events stamped `1..=clock` have been submitted.
    /// Advanced and read with `Relaxed` ordering — see the module docs
    /// for why that contract is sufficient (the clock allocates stamps;
    /// it never carries cross-thread visibility).
    clock: AtomicU64,
    /// Per-job stamp clocks (TTL engines only — empty otherwise): the
    /// registry behind the per-job time domains. The map is append-only
    /// in practice (a job's clock lives as long as the engine); clients
    /// cache the `Arc`s so the steady state never touches the lock.
    /// Same `Relaxed` contract as `clock`.
    job_clocks: RwLock<FxHashMap<JobId, Arc<AtomicU64>>>,
    /// Client-side telemetry state; `None` when telemetry is disabled.
    telemetry: Option<EngineTelemetry>,
}

impl Drop for Inner {
    /// Graceful shutdown: closing the command channels makes every
    /// worker's `recv` fail, ending its loop; joining then reclaims the
    /// threads. `Inner` only drops once every client is gone, so no
    /// sender can outlive this point.
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Closing the frame lane ends the writer loop after it drains
        // and flushes; joining makes the final fsync happen-before the
        // engine is gone.
        self.wal = None;
        if let Some(handle) = self.wal_writer.take() {
            let _ = handle.join();
        }
    }
}

/// Long-lived worker loop: owns one shard, drains one channel. On any
/// loop exit (channel closed or induced [`ShardCmd::Exit`]) the shard's
/// final telemetry snapshot — if telemetry is enabled — is parked in
/// its morgue slot for [`EngineClient::telemetry`] to recover.
fn worker_loop(
    mut shard: Shard,
    rx: Receiver<ShardCmd>,
    shard_id: u32,
    morgue: Option<Arc<Vec<Mutex<Option<TelemetrySnapshot>>>>>,
) {
    let mut throttle: Option<Duration> = None;
    'serve: while let Ok(cmd) = rx.recv() {
        if let Some(delay) = throttle {
            std::thread::sleep(delay);
        }
        match cmd {
            ShardCmd::Throttle(delay) => {
                throttle = (!delay.is_zero()).then_some(delay);
            }
            // Dropping `rx` mid-queue is exactly what a worker panic
            // does; clients must then error loudly, never hang.
            ShardCmd::Exit => break 'serve,
            ShardCmd::Observe { leg, now, sent_at } => {
                if let (Some(sent), Some(tel)) = (sent_at, shard.telemetry()) {
                    tel.queue_wait_ns.record(sent.elapsed().as_nanos() as u64);
                }
                // The leg's buffer is consumed, and freed once applied.
                match leg {
                    // Without a TTL per-event stamps are unobservable;
                    // batch-end granularity keeps the LRU order usable
                    // for forced eviction.
                    Leg::Plain(events) => {
                        shard.observe_leg(events.into_iter().map(|obs| (obs, now)))
                    }
                    Leg::Stamped(events) => shard.observe_leg(events.into_iter()),
                }
                if shard.ttl().is_some() {
                    shard.maybe_sweep(now);
                }
            }
            ShardCmd::Query { epoch, reply, run } => {
                let result = run(&mut shard);
                let _ = reply.send(Reply {
                    epoch,
                    shard: shard_id,
                    result,
                });
            }
        }
    }
    // Last words: park the final snapshot so a dead shard's histograms
    // and flight ring stay reachable through `telemetry()`.
    if let (Some(morgue), Some(snap)) = (morgue, shard.telemetry_snapshot()) {
        *morgue[shard_id as usize].lock().unwrap() = Some(snap);
    }
}

/// Handle to a running persistent-worker engine. Cheap to clone, and
/// `Send + Sync`: share it freely, then give each thread its own
/// [`EngineClient`] (via [`PersistentEngine::client`]) for the actual
/// traffic.
#[derive(Clone)]
pub struct PersistentEngine {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for PersistentEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentEngine")
            .field("shards", &self.inner.senders.len())
            .field("clock", &self.inner.clock.load(Ordering::Relaxed))
            .finish()
    }
}

impl PersistentEngine {
    /// Spawns `cfg.shards` worker threads, each owning one shard.
    /// Panics with the [`SpawnError`] message if the OS refuses a
    /// worker thread; use [`PersistentEngine::try_new`] to handle that
    /// without unwinding.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: spawns `cfg.shards` worker threads, each
    /// owning one shard. On a failed spawn the already-started workers
    /// are shut down and joined before the error is returned, so a
    /// partial engine never leaks threads.
    ///
    /// With [`EngineConfig::durability`] set this is a **fresh start**:
    /// any segments or snapshots already in the durability directory
    /// belong to a previous life of the engine and are deleted (a new
    /// engine's empty state must not mix with a stale log — recovery
    /// would replay history this engine never saw). Use
    /// [`PersistentEngine::recover`] to resume from existing state
    /// instead. Panics if the durability directory cannot be prepared.
    pub fn try_new(cfg: EngineConfig) -> Result<Self, SpawnError> {
        if let Some(d) = &cfg.durability {
            let wipe = || -> std::io::Result<()> {
                for seg in oplog::segment_files(&d.dir)? {
                    std::fs::remove_file(&seg.path)?;
                }
                for (_, path) in oplog::snapshot_files(&d.dir)? {
                    std::fs::remove_file(&path)?;
                }
                Ok(())
            };
            wipe()
                .unwrap_or_else(|e| panic!("cannot reset durability dir {}: {e}", d.dir.display()));
        }
        Self::try_spawn(cfg)
    }

    /// Spawns workers (and the log-writer thread when durability is
    /// configured) *without* touching existing log artifacts — the
    /// writer appends after the last valid frame. Restore/recovery
    /// paths use this; [`PersistentEngine::try_new`] wipes first.
    fn try_spawn(cfg: EngineConfig) -> Result<Self, SpawnError> {
        cfg.validate();
        let (wal, wal_writer) = match &cfg.durability {
            Some(d) => {
                let writer = WalWriter::open(d.clone())
                    .unwrap_or_else(|e| panic!("cannot open WAL in {}: {e}", d.dir.display()));
                let (tx, rx) = unbounded();
                let counters = Arc::new(WalCounters::default());
                let thread_counters = Arc::clone(&counters);
                let handle = std::thread::Builder::new()
                    .name("mpp-wal-writer".into())
                    .spawn(move || wal_writer_loop(writer, rx, thread_counters))
                    .unwrap_or_else(|e| panic!("cannot spawn WAL writer thread: {e}"));
                (Some(WalState { tx, counters }), Some(handle))
            }
            None => (None, None),
        };
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        let lanes = (0..cfg.shards).map(|_| LaneStats::default()).collect();
        let telemetry = cfg.telemetry.enabled.then(|| EngineTelemetry {
            send_block_ns: Histogram::new(),
            flight: Mutex::new(FlightRecorder::new(cfg.telemetry.flight_capacity)),
            morgue: Arc::new((0..cfg.shards).map(|_| Mutex::new(None)).collect()),
        });
        for id in 0..cfg.shards {
            let mut shard = Shard::with_ensemble(cfg.dpd.clone(), cfg.ttl, cfg.ensemble.clone());
            shard.enable_telemetry(&cfg.telemetry, id as u32);
            let (tx, rx) = match cfg.observe_queue_cap {
                Some(cap) => bounded(cap),
                None => unbounded(),
            };
            let morgue = telemetry.as_ref().map(|t| Arc::clone(&t.morgue));
            let spawned = std::thread::Builder::new()
                .name(format!("mpp-shard-{id}"))
                .spawn(move || worker_loop(shard, rx, id as u32, morgue));
            match spawned {
                Ok(handle) => {
                    senders.push(tx);
                    workers.push(handle);
                }
                Err(source) => {
                    drop(tx);
                    drop(senders); // closes every started worker's lane
                    for handle in workers {
                        let _ = handle.join();
                    }
                    drop(wal); // closes the frame lane
                    if let Some(handle) = wal_writer {
                        let _ = handle.join();
                    }
                    return Err(SpawnError { shard: id, source });
                }
            }
        }
        Ok(PersistentEngine {
            inner: Arc::new(Inner {
                cfg,
                senders,
                workers,
                wal,
                wal_writer,
                lanes,
                clock: AtomicU64::new(0),
                job_clocks: RwLock::new(FxHashMap::default()),
                telemetry,
            }),
        })
    }

    /// Test support (hidden): makes shard `shard`'s worker
    /// deterministically slow by sleeping `delay` before each command
    /// it processes (`Duration::ZERO` turns throttling off). Lets the
    /// backpressure tests fill a bounded lane on purpose.
    #[doc(hidden)]
    pub fn debug_throttle_worker(&self, shard: usize, delay: Duration) {
        self.inner.senders[shard]
            .send(ShardCmd::Throttle(delay))
            .unwrap_or_else(|_| panic!("{}", WorkerGone { shard }));
    }

    /// Test support (hidden): makes shard `shard`'s worker exit as if
    /// it had died. Commands already queued behind the kill are
    /// abandoned, exactly like a mid-queue panic. With `wait` the call
    /// blocks until the worker thread is finished, so callers can
    /// immediately assert on the dead-lane behaviour; without it the
    /// kill is left racing, which lets tests queue commands *behind*
    /// the exit to exercise the reply-lane hang detection.
    #[doc(hidden)]
    pub fn debug_kill_worker(&self, shard: usize, wait: bool) {
        // The worker may already be dead; that is fine for this path.
        let _ = self.inner.senders[shard].send(ShardCmd::Exit);
        while wait && !self.inner.workers[shard].is_finished() {
            std::thread::yield_now();
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.cfg
    }

    /// Number of shards (= worker threads).
    pub fn shard_count(&self) -> usize {
        self.inner.senders.len()
    }

    /// Shard index serving `rank` of the default job.
    pub fn shard_for(&self, rank: RankId) -> usize {
        self.shard_for_job(DEFAULT_JOB, rank)
    }

    /// Shard index serving `rank` of `job`.
    pub fn shard_for_job(&self, job: JobId, rank: RankId) -> usize {
        shard_of(job, rank, self.inner.senders.len())
    }

    /// Engine time: total events submitted so far.
    pub fn clock(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Per-shard observe-lane high-water marks accumulated since the
    /// previous call, resetting the epoch counters to zero — the
    /// pressure signal the federation's rebalancer reads between
    /// epochs. The all-time `queue_high_water` metric is unaffected.
    pub fn take_epoch_queue_high_water(&self) -> Vec<u64> {
        self.inner
            .lanes
            .iter()
            .map(|l| l.epoch_high_water.swap(0, Ordering::Relaxed))
            .collect()
    }

    /// Rebuilds a running engine from an [`EngineClient::snapshot`]
    /// blob: spawns the workers, seeds the global clock and the per-job
    /// clock registry, then ships each worker its shard's serialized
    /// state.
    /// `cfg` must match the snapshot's shard count, TTL, and DPD
    /// parameters ([`SnapshotError::ConfigMismatch`] otherwise);
    /// transport knobs are free to differ. Every stream record is
    /// checked before any worker starts ([`SnapshotError::Malformed`]
    /// otherwise), so no worker can die on restored state. Panics like
    /// [`PersistentEngine::new`] if a worker thread cannot be spawned.
    ///
    /// With [`EngineConfig::durability`] set, existing log artifacts
    /// are *kept* and appended after (unlike
    /// [`PersistentEngine::new`]) — the restored clock continues the
    /// stamp sequence the log left off at. This is the recovery
    /// building block; callers restoring a snapshot unrelated to the
    /// directory's log should point durability at a fresh directory.
    pub fn restore(cfg: EngineConfig, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let snap = decode_engine_for(bytes, &cfg)?;
        let eng = Self::try_spawn(cfg).unwrap_or_else(|e| panic!("{e}"));
        eng.inner.clock.store(snap.clock, Ordering::Relaxed);
        {
            let mut registry = eng.inner.job_clocks.write().unwrap();
            for &(job, c) in &snap.job_clocks {
                registry.insert(job, Arc::new(AtomicU64::new(c)));
            }
        }
        eng.client().ask(
            snap.shard_states
                .into_iter()
                .enumerate()
                .map(|(s, st)| (s, move |sh: &mut Shard| sh.restore_state(&st))),
        );
        Ok(eng)
    }

    /// Blocks until every observation-log frame submitted before this
    /// call is written *and fsynced* — a durability barrier over the
    /// fire-and-forget log lane, regardless of the flush policy.
    /// Returns `false` (trivially satisfied) when the engine has no
    /// durability configured.
    pub fn sync_wal(&self) -> bool {
        let Some(wal) = self.inner.wal.as_ref() else {
            return false;
        };
        let (ack_tx, ack_rx) = bounded(1);
        if wal.tx.send(WalMsg::Sync(ack_tx)).is_err() {
            return false;
        }
        ack_rx.recv().is_ok()
    }

    /// Rebuilds an engine from its durability directory: restores the
    /// newest snapshot that validates (falling back to older ones past
    /// corrupt files), repairs the observation log (a torn or corrupt
    /// tail is truncated to the last valid frame — recorded in the
    /// report and, with telemetry on, as a `wal_truncated` flight
    /// event), then replays every log frame past the snapshot's
    /// watermark through the live observe path. The recovered engine
    /// keeps appending to the same log, so crash → recover → crash →
    /// recover composes.
    ///
    /// With no usable snapshot, recovery replays the whole log into an
    /// empty engine. Corruption never panics and is never partially
    /// applied; the only hard failures are the [`RecoverError`]
    /// conditions (I/O, config mismatch, an unrecoverable gap).
    ///
    /// Recovery is bit-identical to never having crashed for
    /// everything the log retained: predictions, metrics, hit rates,
    /// and ensemble `ModelStats` (`tests/wal.rs`). The single-writer
    /// determinism caveat from [`EngineClient::snapshot`] applies, and
    /// [`BackpressurePolicy::Shed`] engines forfeit the guarantee for
    /// shed events (the log records submissions; shedding is
    /// load-dependent).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has no [`EngineConfig::durability`] (there is
    /// nothing to recover from), or if workers cannot be spawned.
    pub fn recover(cfg: EngineConfig) -> Result<(Self, RecoveryReport), RecoverError> {
        let d = cfg
            .durability
            .clone()
            .expect("recover() needs EngineConfig::durability");
        std::fs::create_dir_all(&d.dir)?;
        let scan = oplog::scan_log(&d.dir)?;
        oplog::repair(&d.dir, &scan)?;
        let mut report = RecoveryReport {
            wal_truncated: scan.tear.is_some(),
            ..RecoveryReport::default()
        };

        // Newest snapshot that validates wins; corrupt ones are
        // skipped in favour of an older snapshot + a longer replay.
        let mut restored: Option<PersistentEngine> = None;
        for (_, path) in oplog::snapshot_files(&d.dir)?.iter().rev() {
            let bytes = std::fs::read(path)?;
            match Self::restore(cfg.clone(), &bytes) {
                Ok(eng) => {
                    restored = Some(eng);
                    break;
                }
                Err(SnapshotError::ConfigMismatch(m)) => {
                    return Err(RecoverError::Config(SnapshotError::ConfigMismatch(m)));
                }
                Err(_corrupt) => report.snapshots_skipped += 1,
            }
        }
        let eng =
            restored.unwrap_or_else(|| Self::try_spawn(cfg).unwrap_or_else(|e| panic!("{e}")));
        report.snapshot_events = eng.clock();

        // Replay the tail. Frames are stamp-sorted and contiguous
        // after repair; the engine clock re-allocates the exact stamp
        // ranges the original run did, so the replayed state is the
        // original state. Replayed frames are not re-appended (they
        // are already in the log).
        let client = eng.client();
        for frame in &scan.frames {
            let end = frame.base + frame.obs.len() as u64;
            let cur = eng.clock();
            if end <= cur {
                continue; // fully covered by the snapshot
            }
            if frame.base > cur {
                return Err(RecoverError::MissingPrefix {
                    covered: cur,
                    log_starts_at: frame.base,
                });
            }
            let skip = (cur - frame.base) as usize;
            client
                .observe_batch_inner(&frame.obs[skip..], false)
                .map_err(RecoverError::Replay)?;
        }
        report.wal_events = eng.clock() - report.snapshot_events;
        if let Some(wal) = eng.inner.wal.as_ref() {
            wal.counters
                .recovered_events
                .store(report.wal_events, Ordering::Relaxed);
        }
        if let (Some(tear), Some(tel)) = (&scan.tear, eng.inner.telemetry.as_ref()) {
            tel.push_flight(FlightEvent {
                at: eng.clock(),
                kind: FlightKind::WalTruncated,
                member: 0,
                shard: 0,
                job: 0,
                a: tear.dropped_bytes,
                b: tear.offset,
            });
        }
        Ok((eng, report))
    }

    /// Creates a client: a private lane into the engine. One per
    /// thread; creation is cheap (one reply channel).
    pub fn client(&self) -> EngineClient {
        let (reply_tx, reply_rx) = unbounded();
        EngineClient {
            inner: Arc::clone(&self.inner),
            reply_tx,
            reply_rx,
            epoch: Cell::new(0),
            leg_sizes: RefCell::new(Vec::new()),
            legs_scratch: RefCell::new(Vec::new()),
            job_clock_cache: RefCell::new(FxHashMap::default()),
            stamp_cursors: RefCell::new(Vec::new()),
        }
    }
}

/// A per-thread client of a [`PersistentEngine`]: owns a private reply
/// lane. `Send` but intentionally not `Sync` — clone the engine handle
/// and make one client per thread instead of sharing.
pub struct EngineClient {
    inner: Arc<Inner>,
    reply_tx: Sender<Reply>,
    reply_rx: Receiver<Reply>,
    /// Stamp of the most recent request on this lane.
    epoch: Cell<u64>,
    /// Per-shard event counts of the batch being partitioned, reused
    /// across `observe_batch` calls.
    leg_sizes: RefCell<Vec<usize>>,
    /// Per-shard legs of the batch being partitioned, reused across
    /// `observe_batch` calls (entries are `take`n when sent, so no
    /// event buffer outlives the call).
    legs_scratch: RefCell<Vec<Option<Leg>>>,
    /// Private cache of the registry's per-job clock `Arc`s so the
    /// ingest hot path allocates stamps without taking the registry
    /// lock (TTL engines only; stays empty otherwise).
    job_clock_cache: RefCell<FxHashMap<JobId, Arc<AtomicU64>>>,
    /// Per-batch stamping scratch: `(job, cursor)` pairs reused across
    /// `observe_batch` calls (batches touch a handful of jobs, so a
    /// linear scan beats hashing here).
    stamp_cursors: RefCell<Vec<(JobId, u64)>>,
}

impl std::fmt::Debug for EngineClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineClient")
            .field("shards", &self.inner.senders.len())
            .field("epoch", &self.epoch.get())
            .finish()
    }
}

impl EngineClient {
    /// The engine handle this client talks to.
    pub fn engine(&self) -> PersistentEngine {
        PersistentEngine {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.senders.len()
    }

    fn next_epoch(&self) -> u64 {
        let e = self.epoch.get() + 1;
        self.epoch.set(e);
        e
    }

    /// The registry clock of `job`, interned on first use and cached so
    /// subsequent batches never take the registry lock.
    fn job_clock(&self, job: JobId) -> Arc<AtomicU64> {
        if let Some(c) = self.job_clock_cache.borrow().get(&job) {
            return Arc::clone(c);
        }
        let existing = self
            .inner
            .job_clocks
            .read()
            .unwrap()
            .get(&job)
            .map(Arc::clone);
        let clock = existing.unwrap_or_else(|| {
            let mut clocks = self.inner.job_clocks.write().unwrap();
            Arc::clone(
                clocks
                    .entry(job)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        });
        self.job_clock_cache
            .borrow_mut()
            .insert(job, Arc::clone(&clock));
        clock
    }

    /// `now` in `job`'s time domain: the job's registry clock under a
    /// TTL (0 for a job never observed — nothing of it can be expired),
    /// the global engine clock otherwise. Read-only: never interns.
    fn job_now(&self, job: JobId) -> u64 {
        if self.inner.cfg.ttl.is_none() {
            return self.inner.clock.load(Ordering::Relaxed);
        }
        if let Some(c) = self.job_clock_cache.borrow().get(&job) {
            return c.load(Ordering::Relaxed);
        }
        self.inner
            .job_clocks
            .read()
            .unwrap()
            .get(&job)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Records a worker-gone sighting in the client-side flight ring
    /// (the dead worker can no longer record anything itself).
    fn note_worker_gone(&self, s: usize, events: u64, job: JobId, at: u64) {
        if let Some(tel) = self.inner.telemetry.as_ref() {
            tel.push_flight(FlightEvent {
                at,
                kind: FlightKind::WorkerGone,
                member: 0,
                shard: s as u32,
                job,
                a: events,
                b: 0,
            });
        }
    }

    /// Sends one observe leg to shard `s`, applying the backpressure
    /// policy when the lane is bounded and full. `Ok(true)` means the
    /// leg was enqueued, `Ok(false)` that it was shed (counted and
    /// dropped).
    fn send_leg(&self, s: usize, leg: Leg, now: u64) -> Result<bool, WorkerGone> {
        let tx = &self.inner.senders[s];
        let lane = &self.inner.lanes[s];
        let events = leg.len() as u64;
        let job = leg.first_job();
        let cmd = ShardCmd::Observe {
            leg,
            now,
            sent_at: self.inner.telemetry.as_ref().map(|_| Instant::now()),
        };
        let cmd = match tx.try_send(cmd) {
            Ok(()) => {
                lane.note_observe_high_water(tx.len() as u64);
                return Ok(true);
            }
            Err(TrySendError::Disconnected(_)) => {
                self.note_worker_gone(s, events, job, now);
                return Err(WorkerGone { shard: s });
            }
            Err(TrySendError::Full(cmd)) => cmd,
        };
        match self.inner.cfg.backpressure {
            BackpressurePolicy::Block => {
                lane.send_blocked.fetch_add(1, Ordering::Relaxed);
                let t0 = self.inner.telemetry.as_ref().map(|_| Instant::now());
                // A dead worker cannot park us forever: its dropped
                // receiver disconnects the lane, which wakes blocked
                // senders with an error.
                tx.send(cmd).map_err(|_| {
                    self.note_worker_gone(s, events, job, now);
                    WorkerGone { shard: s }
                })?;
                if let (Some(t0), Some(tel)) = (t0, self.inner.telemetry.as_ref()) {
                    let blocked = t0.elapsed().as_nanos() as u64;
                    tel.send_block_ns.record(blocked);
                    tel.push_flight(FlightEvent {
                        at: now,
                        kind: FlightKind::BackpressureBlock,
                        member: 0,
                        shard: s as u32,
                        job,
                        a: events,
                        b: blocked,
                    });
                }
                lane.note_observe_high_water(tx.len() as u64);
                Ok(true)
            }
            BackpressurePolicy::Shed => {
                lane.shed_events.fetch_add(events, Ordering::Relaxed);
                if let Some(tel) = self.inner.telemetry.as_ref() {
                    tel.push_flight(FlightEvent {
                        at: now,
                        kind: FlightKind::BackpressureShed,
                        member: 0,
                        shard: s as u32,
                        job,
                        a: events,
                        b: 0,
                    });
                }
                Ok(false)
            }
        }
    }

    /// Submits `batch` for ingestion, fire-and-forget, reporting the
    /// backpressure outcome. Errs (dropping the batch's remaining
    /// events) only if a shard worker is gone — the non-panicking path
    /// destructors need.
    pub fn try_observe_batch(&self, batch: &[Observation]) -> Result<ObserveOutcome, WorkerGone> {
        self.observe_batch_inner(batch, true)
    }

    /// The submission path behind [`EngineClient::try_observe_batch`].
    /// `log` is false only on the recovery replay path: replayed
    /// frames are already in the observation log and must not be
    /// re-appended.
    fn observe_batch_inner(
        &self,
        batch: &[Observation],
        log: bool,
    ) -> Result<ObserveOutcome, WorkerGone> {
        let mut outcome = ObserveOutcome::default();
        if batch.is_empty() {
            return Ok(outcome);
        }
        let nshards = self.inner.senders.len();
        let base = self
            .inner
            .clock
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let now = base + batch.len() as u64;
        if log {
            if let Some(wal) = self.inner.wal.as_ref() {
                // One copy of the batch, handed off the hot path; the
                // writer owns framing, rotation, and fsync cadence, and
                // frees the copy once it is appended.
                let obs = batch.to_vec();
                let _ = wal.tx.send(WalMsg::Frame { base, obs });
            }
        }
        let stamped = self.inner.cfg.ttl.is_some();
        // Counting pass: each shard's leg size and, under a TTL, each
        // job's event count.
        let mut sizes = self.leg_sizes.borrow_mut();
        sizes.clear();
        sizes.resize(nshards, 0);
        let mut cursors = self.stamp_cursors.borrow_mut();
        cursors.clear();
        for obs in batch {
            sizes[shard_of_key(obs.key, nshards)] += 1;
            if stamped {
                match cursors.iter_mut().find(|(j, _)| *j == obs.key.job) {
                    Some((_, n)) => *n += 1,
                    None => cursors.push((obs.key.job, 1)),
                }
            }
        }
        // Per-job stamp allocation: reserve one contiguous stamp range
        // per job from its registry clock (a single `fetch_add` each),
        // then hand the stamps out in batch order — concurrent clients
        // get disjoint ranges, and a job's clock only ever advances
        // under its own traffic.
        for (job, n) in cursors.iter_mut() {
            let job_base = self.job_clock(*job).fetch_add(*n, Ordering::Relaxed);
            *n = job_base + 1; // repurposed: next stamp to assign
        }
        // Fill pass: every leg is allocated once, at its exact size.
        let mut legs = self.legs_scratch.borrow_mut();
        legs.clear();
        legs.extend(sizes.iter().map(|&n| match (n, stamped) {
            (0, _) => None,
            (n, false) => Some(Leg::Plain(Vec::with_capacity(n))),
            (n, true) => Some(Leg::Stamped(Vec::with_capacity(n))),
        }));
        for obs in batch {
            let s = shard_of_key(obs.key, nshards);
            let leg = legs[s]
                .as_mut()
                .expect("shard counted in the counting pass");
            match leg {
                Leg::Plain(buf) => buf.push(*obs),
                Leg::Stamped(buf) => {
                    let (_, cursor) = cursors
                        .iter_mut()
                        .find(|(j, _)| *j == obs.key.job)
                        .expect("job counted in the counting pass");
                    buf.push((*obs, *cursor));
                    *cursor += 1;
                }
            }
        }
        let mut err = None;
        for (s, slot) in legs.iter_mut().enumerate() {
            let Some(leg) = slot.take() else { continue };
            let events = leg.len() as u64;
            match self.send_leg(s, leg, now) {
                Ok(true) => outcome.enqueued += events,
                Ok(false) => outcome.shed += events,
                // Keep dispatching the healthy shards' legs; report the
                // first dead lane once every leg is accounted for.
                Err(gone) => err = err.or(Some(gone)),
            }
        }
        match err {
            Some(gone) => Err(gone),
            None => Ok(outcome),
        }
    }

    /// Submits `batch` for ingestion, fire-and-forget, reporting the
    /// backpressure outcome (`Shed` mode can drop events when a lane is
    /// full; `Block` and unbounded lanes always enqueue everything).
    /// Panics if a shard worker is gone (its thread died).
    pub fn observe_batch(&self, batch: &[Observation]) -> ObserveOutcome {
        self.try_observe_batch(batch)
            .unwrap_or_else(|gone| panic!("{gone}"))
    }

    /// Ingests a single observation (convenience; batching is the
    /// throughput path).
    pub fn observe(&self, key: StreamKey, value: u64) {
        self.observe_batch(&[Observation::new(key, value)]);
    }

    /// The one scatter/gather path behind every query: sends each
    /// closure to its shard's worker, then waits for exactly those
    /// shards and returns their results in ask order. Every query goes
    /// out before any reply is awaited, so shards serve concurrently;
    /// a full bounded lane blocks the send (queries are never shed).
    ///
    /// Replies of an older epoch, left by an aborted collection, are
    /// skipped; that is also what makes every downcast here succeed.
    ///
    /// Errs with [`WorkerGone`] for the first asked shard whose lane is
    /// closed or whose worker exits with the query unanswered. The
    /// reply lane itself never disconnects (the client holds a
    /// sender), so a stalled wait polls the asked workers' liveness;
    /// a dead worker that was not asked fails nothing.
    fn try_ask<R, F>(
        &self,
        asks: impl IntoIterator<Item = (usize, F)>,
    ) -> Result<Vec<R>, WorkerGone>
    where
        R: Send + 'static,
        F: FnOnce(&mut Shard) -> R + Send + 'static,
    {
        let epoch = self.next_epoch();
        let mut asked: Vec<(usize, Option<R>)> = Vec::new();
        for (shard, f) in asks {
            let tx = &self.inner.senders[shard];
            let run: ShardFn =
                Box::new(move |sh: &mut Shard| Box::new(f(sh)) as Box<dyn Any + Send>);
            let reply = self.reply_tx.clone();
            tx.send(ShardCmd::Query { epoch, reply, run })
                .map_err(|_| WorkerGone { shard })?;
            // Queries sample the all-time mark only (see `epoch_high_water`).
            self.inner.lanes[shard]
                .queue_high_water
                .fetch_max(tx.len() as u64, Ordering::Relaxed);
            asked.push((shard, None));
        }
        let mut pending = asked.len();
        while pending > 0 {
            let reply = match self.reply_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(reply) => reply,
                Err(_timeout) => {
                    // A finished worker has sent every reply it ever
                    // will, so once the lane is empty its query is lost.
                    let dead = asked
                        .iter()
                        .find(|(s, r)| r.is_none() && self.inner.workers[*s].is_finished());
                    match dead {
                        Some(&(shard, _)) if self.reply_rx.is_empty() => {
                            return Err(WorkerGone { shard })
                        }
                        _ => continue,
                    }
                }
            };
            if reply.epoch != epoch {
                continue;
            }
            let (_, slot) = asked
                .iter_mut()
                .find(|(s, r)| *s == reply.shard as usize && r.is_none())
                .expect("a reply of this epoch answers an asked shard");
            let result = reply.result.downcast::<R>();
            *slot = Some(*result.expect("a reply of this epoch carries its query's result"));
            pending -= 1;
        }
        Ok(asked.into_iter().filter_map(|(_, r)| r).collect())
    }

    /// [`EngineClient::try_ask`], panicking with the [`WorkerGone`]
    /// message.
    fn ask<R, F>(&self, asks: impl IntoIterator<Item = (usize, F)>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut Shard) -> R + Send + 'static,
    {
        self.try_ask(asks).unwrap_or_else(|gone| panic!("{gone}"))
    }

    /// Runs `f` on `shard`'s worker and returns its result.
    fn ask_one<R, F>(&self, shard: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Shard) -> R + Send + 'static,
    {
        self.ask([(shard, f)]).pop().expect("one ask, one result")
    }

    /// Runs `f` on every shard, returning the results in shard order.
    fn ask_all<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut Shard) -> R + Clone + Send + 'static,
    {
        self.ask((0..self.shard_count()).map(|s| (s, f.clone())))
    }

    /// Serves one query.
    pub fn predict(&self, key: StreamKey, horizon: u32) -> Option<u64> {
        let now = self.job_now(key.job);
        self.ask_one(shard_of_key(key, self.shard_count()), move |sh| {
            sh.predict_at(Query::new(key, horizon), now)
        })
    }

    /// Serves `queries`, writing one entry per query into `out`
    /// (cleared first). Legs are dispatched to all busy shards before
    /// any reply is awaited, so shards serve concurrently.
    pub fn predict_batch(&self, queries: &[Query], out: &mut Vec<Option<u64>>) {
        out.clear();
        if queries.is_empty() {
            return;
        }
        out.resize(queries.len(), None);
        let nshards = self.inner.senders.len();
        // Partition into per-shard legs, remembering original positions.
        // Each query carries its own job's `now` (per-job time domains).
        let mut legs: Vec<Vec<(u32, Query, u64)>> = vec![Vec::new(); nshards];
        for (i, q) in queries.iter().enumerate() {
            legs[shard_of_key(q.key, nshards)].push((i as u32, *q, self.job_now(q.key.job)));
        }
        let busy = legs.into_iter().enumerate().filter(|(_, l)| !l.is_empty());
        let asks = busy.map(|(s, leg)| {
            (s, move |sh: &mut Shard| -> Vec<(u32, Option<u64>)> {
                let serve = |(i, q, now)| (i, sh.predict_at(q, now));
                leg.into_iter().map(serve).collect()
            })
        });
        for (i, p) in self.ask(asks).into_iter().flatten() {
            out[i as usize] = p;
        }
    }

    /// The next `depth` forecast (sender, size) pairs for `rank` of
    /// the default job.
    pub fn forecast_messages(
        &self,
        rank: RankId,
        depth: usize,
        out: &mut Vec<(Option<u64>, Option<u64>)>,
    ) {
        self.forecast_messages_for_job(DEFAULT_JOB, rank, depth, out);
    }

    /// The next `depth` forecast (sender, size) pairs for `rank` inside
    /// `job`'s namespace. `out` travels to the shard and back, so the
    /// forecast lands in the caller's buffer.
    pub fn forecast_messages_for_job(
        &self,
        job: JobId,
        rank: RankId,
        depth: usize,
        out: &mut Vec<(Option<u64>, Option<u64>)>,
    ) {
        let now = self.job_now(job);
        let mut buf = std::mem::take(out);
        *out = self.ask_one(shard_of(job, rank, self.shard_count()), move |sh| {
            sh.forecast_at(job, rank, depth, now, &mut buf);
            buf
        });
    }

    /// Detected period of a stream, if locked and not expired.
    pub fn period_of(&self, key: StreamKey) -> Option<usize> {
        let now = self.job_now(key.job);
        self.ask_one(shard_of_key(key, self.shard_count()), move |sh| {
            sh.period_of_at(key, now)
        })
    }

    /// Detector confidence of a stream's lock.
    pub fn confidence_of(&self, key: StreamKey) -> Option<f64> {
        let now = self.job_now(key.job);
        self.ask_one(shard_of_key(key, self.shard_count()), move |sh| {
            sh.confidence_of_at(key, now)
        })
    }

    /// Per-shard metrics snapshot. Each shard's snapshot is taken after
    /// every command this client submitted before the call (FIFO), so a
    /// single-threaded caller always sees its own writes counted. The
    /// submission-side backpressure counters (`queue_high_water`,
    /// `send_blocked`, `shed_events`) are merged in from the shared
    /// lane stats, which workers cannot observe themselves.
    pub fn metrics(&self) -> EngineMetrics {
        let mut shards = self.ask_all(|sh| sh.metrics());
        for (m, lane) in shards.iter_mut().zip(&self.inner.lanes) {
            m.queue_high_water = lane.queue_high_water.load(Ordering::Relaxed);
            m.send_blocked = lane.send_blocked.load(Ordering::Relaxed);
            m.shed_events = lane.shed_events.load(Ordering::Relaxed);
        }
        EngineMetrics { shards }
    }

    /// Aggregate metrics across shards.
    pub fn metrics_total(&self) -> ShardMetrics {
        self.metrics().total()
    }

    /// Total streams resident across shards.
    pub fn stream_count(&self) -> usize {
        self.metrics_total().resident_streams as usize
    }

    /// Engine time as submitted so far — the stamp domain of telemetry
    /// flight events.
    pub(crate) fn engine_time(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// The engine-wide telemetry snapshot: every shard's histograms,
    /// counters, and flight ring merged with the client-side lane
    /// telemetry (`send_blocked` / `shed_events` counters, the
    /// `send_block_ns` histogram, and the submission-side flight ring).
    /// Returns `None` when the engine was built without telemetry
    /// ([`EngineConfig::telemetry`] disabled).
    ///
    /// Collection is fault-tolerant: a dead shard worker contributes
    /// its last-words snapshot (parked on orderly exit) instead of
    /// failing the whole call; a shard that hard-panicked loses its
    /// worker-side ring, but the client-side ring still carries the
    /// `worker_gone` sighting.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        let tel = self.inner.telemetry.as_ref()?;
        let mut total = TelemetrySnapshot::new();
        for s in 0..self.shard_count() {
            let snap = match self.try_ask([(s, |sh: &mut Shard| sh.telemetry_snapshot())]) {
                Ok(mut snaps) => snaps.pop().flatten(),
                Err(_gone) => tel.morgue[s].lock().unwrap().clone(),
            };
            if let Some(snap) = snap {
                total.merge(&snap);
            }
        }
        let (mut blocked, mut shed) = (0u64, 0u64);
        for lane in &self.inner.lanes {
            blocked += lane.send_blocked.load(Ordering::Relaxed);
            shed += lane.shed_events.load(Ordering::Relaxed);
        }
        total.add_counter("send_blocked", blocked);
        total.add_counter("shed_events", shed);
        total.merge_histogram("send_block_ns", tel.send_block_ns.snapshot());
        if let Some(wal) = self.inner.wal.as_ref() {
            let c = &wal.counters;
            total.add_counter("wal_frames", c.frames.load(Ordering::Relaxed));
            total.add_counter("wal_bytes", c.bytes.load(Ordering::Relaxed));
            total.add_counter("wal_fsyncs", c.fsyncs.load(Ordering::Relaxed));
            total.add_counter(
                "wal_recovered_events",
                c.recovered_events.load(Ordering::Relaxed),
            );
            total.add_counter("wal_io_errors", c.io_errors.load(Ordering::Relaxed));
            total.merge_histogram("wal_flush_ns", c.flush_ns.snapshot());
        }
        total.extend_flight(tel.flight.lock().unwrap().dump());
        total.sort_flight();
        Some(total)
    }

    /// Forcibly evicts one stream, returning whether it was resident.
    pub fn evict_stream(&self, key: StreamKey) -> bool {
        self.ask_one(shard_of_key(key, self.shard_count()), move |sh| {
            sh.evict_stream(key)
        })
    }

    /// Forcibly evicts every resident stream of `job` across all
    /// shards, returning how many were removed. The job's metric
    /// rollups survive; returning streams restart cold.
    pub fn evict_job(&self, job: JobId) -> usize {
        self.ask_all(move |sh| sh.evict_job(job)).into_iter().sum()
    }

    /// Jobs with at least one resident stream, ascending.
    pub fn resident_jobs(&self) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = self.ask_all(|sh| sh.resident_jobs()).concat();
        jobs.sort_unstable();
        jobs.dedup();
        jobs
    }

    /// Per-job scoring rollups summed across shards, ascending by job.
    pub fn job_metrics(&self) -> Vec<(JobId, JobMetrics)> {
        merge_job_rollups(self.ask_all(|sh| sh.job_metrics()))
    }

    /// Per-model champion/challenger counters summed across shards,
    /// positional over the roster (index 0 = primary DPD). Empty on
    /// DPD-only engines.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        merge_model_stats(self.ask_all(|sh| sh.model_stats()))
    }

    /// Per-job per-model counters summed across shards, ascending by
    /// job (the per-model analogue of [`EngineClient::job_metrics`]).
    pub fn job_model_stats(&self) -> Vec<(JobId, Vec<ModelStats>)> {
        merge_job_model_rollups(self.ask_all(|sh| sh.job_model_stats()))
    }

    /// Sweeps every shard now, returning how many expired streams were
    /// reclaimed (workers sweep their own shard after each batch they
    /// receive; this also reaches idle shards). The registry's current
    /// per-job clocks are folded into every shard's watermarks first,
    /// so streams of jobs whose traffic no longer reaches a shard
    /// still age there.
    pub fn sweep_expired(&self) -> usize {
        let now = self.inner.clock.load(Ordering::Relaxed);
        let job_nows: Vec<(JobId, u64)> = self
            .inner
            .job_clocks
            .read()
            .unwrap()
            .iter()
            .map(|(&job, clock)| (job, clock.load(Ordering::Relaxed)))
            .collect();
        let swept = self.ask_all(move |sh| {
            for &(job, jnow) in &job_nows {
                sh.fold_job_now(job, jnow);
            }
            sh.sweep_expired(now)
        });
        swept.into_iter().sum()
    }

    /// Forcibly evicts the `n` least-recently-observed streams across
    /// all shards (globally LRU by last-observed engine time; with a
    /// TTL unset the order is batch-granular — see the module docs),
    /// returning how many were removed.
    pub fn evict_lru(&self, n: usize) -> usize {
        let candidates = self.ask_all(move |sh| sh.lru_oldest(n)).concat();
        let mut removed = 0;
        for (_, key) in crate::shard::select_lru_victims(candidates, n) {
            if self.evict_stream(key) {
                removed += 1;
            }
        }
        removed
    }

    /// Serializes the engine's complete predictive state into a
    /// versioned, checksummed snapshot (see [`crate::snapshot`]).
    /// Command lanes are FIFO, so the snapshot reflects everything
    /// *this client* submitted before the call; with other clients
    /// concurrently ingesting, their in-flight legs land on whichever
    /// side of the cut the channels ordered them — quiesce other
    /// clients first when an exact cut matters (the migration path
    /// does).
    pub fn snapshot(&self) -> Vec<u8> {
        let shard_states = self.ask_all(|sh| sh.export_state());
        let mut job_clocks: Vec<(JobId, u64)> = self
            .inner
            .job_clocks
            .read()
            .unwrap()
            .iter()
            .map(|(&job, clock)| (job, clock.load(Ordering::Relaxed)))
            .collect();
        job_clocks.sort_unstable_by_key(|&(j, _)| j);
        encode_engine(&EngineSnapshot {
            shards: u32::try_from(self.inner.senders.len()).expect("shard count fits u32"),
            ttl: self.inner.cfg.ttl,
            dpd: self.inner.cfg.dpd.clone(),
            ensemble: self.inner.cfg.ensemble.clone(),
            clock: self.inner.clock.load(Ordering::Relaxed),
            job_clocks,
            shard_states,
        })
    }

    /// Takes a durable checkpoint: fsyncs the observation log, writes
    /// a snapshot file named by the engine-time watermark into the
    /// durability directory (atomically — temp file + rename), then
    /// retires log segments and older snapshots the new anchor makes
    /// redundant (the previous snapshot is kept as a corruption
    /// fallback). Returns the watermark, or `Ok(None)` when the engine
    /// has no durability configured.
    ///
    /// The watermark is read *before* the snapshot cut, so under
    /// concurrent ingest the file name may undercount the state it
    /// holds — retention errs conservative, never dropping frames a
    /// recovery could still need. Same single-client consistency
    /// contract as [`EngineClient::snapshot`].
    pub fn checkpoint(&self) -> std::io::Result<Option<u64>> {
        let Some(d) = self.inner.cfg.durability.as_ref() else {
            return Ok(None);
        };
        self.engine().sync_wal();
        let watermark = self.engine_time();
        let bytes = self.snapshot();
        oplog::write_snapshot_file(&d.dir, watermark, &bytes)?;
        oplog::retain(&d.dir, watermark)?;
        Ok(Some(watermark))
    }

    /// Serializes one job's slice of the engine — streams, summed
    /// rollup history, and job clock — restorable into an engine of
    /// any shard count whose TTL and DPD parameters match (the
    /// live-migration payload). Same single-client consistency contract
    /// as [`EngineClient::snapshot`].
    pub fn snapshot_job(&self, job: JobId) -> Vec<u8> {
        let mut metrics = JobMetrics::default();
        let mut models: Vec<ModelStats> = Vec::new();
        let mut clock = self.job_now(job);
        let mut streams = Vec::new();
        for (jm, ms, watermark, ss) in self.ask_all(move |sh| sh.export_job_state(job)) {
            if let Some(jm) = jm {
                metrics.merge(&jm);
            }
            models = merge_model_stats([models, ms]);
            clock = clock.max(watermark);
            streams.extend(ss);
        }
        streams.sort_unstable_by_key(|s| (s.last_seen, s.key.rank, s.key.kind.index()));
        encode_job(&JobSnapshot {
            job,
            ttl: self.inner.cfg.ttl,
            dpd: self.inner.cfg.dpd.clone(),
            ensemble: self.inner.cfg.ensemble.clone(),
            clock,
            metrics,
            models,
            streams,
        })
    }

    /// Restores a job from an [`EngineClient::snapshot_job`] blob,
    /// replacing any state the engine already held for it, and returns
    /// the job id and how many streams were installed. Streams
    /// re-partition by *this* engine's shard count; only TTL and DPD
    /// parameters must match. Every stream record is checked before any
    /// shard's state is replaced
    /// ([`SnapshotError::Malformed`] otherwise).
    pub fn restore_job(&self, bytes: &[u8]) -> Result<(JobId, usize), SnapshotError> {
        let snap = decode_job_for(bytes, &self.inner.cfg)?;
        let (job, watermark) = (snap.job, snap.clock);
        let nshards = self.inner.senders.len();
        let mut legs: Vec<Vec<StreamState>> = vec![Vec::new(); nshards];
        let mut max_seen = 0u64;
        for s in &snap.streams {
            max_seen = max_seen.max(s.last_seen);
            legs[shard_of(job, s.key.rank, nshards)].push(s.clone());
        }
        let installed = snap.streams.len();
        // The job's historical counters live on exactly one shard (0):
        // replicating them would multiply federation rollups.
        let mut history = Some((snap.metrics, snap.models));
        self.ask(legs.into_iter().enumerate().map(|(s, streams)| {
            let history = history.take();
            (s, move |sh: &mut Shard| {
                // Re-home the job: whatever the shard held of it goes.
                sh.extract_job(job);
                if !streams.is_empty() {
                    sh.restore_job_streams(job, &streams, watermark);
                }
                if let Some((metrics, models)) = history {
                    sh.restore_job_history(job, &metrics, &models);
                    sh.fold_job_now(job, watermark);
                }
            })
        }));
        if self.inner.cfg.ttl.is_some() {
            self.job_clock(job).fetch_max(watermark, Ordering::Relaxed);
        } else {
            // Keep global stamping monotone past the imported recency
            // stamps so LRU touch stays on its O(1) fast path.
            self.inner.clock.fetch_max(max_seen, Ordering::Relaxed);
        }
        Ok((job, installed))
    }

    /// Removes every trace of `job` — streams, rollup history, and
    /// watermarks — returning how many streams left. This is the
    /// *move-out* half of a migration: unlike
    /// [`EngineClient::evict_job`] nothing counts as evicted and the
    /// job's history leaves with it (it lives in the snapshot taken
    /// first). The registry clock entry survives (the registry is
    /// append-only); a job returning to this engine resumes from its
    /// old clock, which is monotone and therefore safe.
    pub fn extract_job(&self, job: JobId) -> usize {
        self.ask_all(move |sh| sh.extract_job(job))
            .into_iter()
            .sum()
    }

    /// Drains the engine: blocks until every command already enqueued
    /// on every shard lane — by *any* client, not just this one — has
    /// been processed. Command lanes are shared per shard and FIFO, so
    /// when this returns, all observations whose `observe_batch`/
    /// `try_observe_batch` call had returned before `drain` was invoked
    /// are fully ingested and visible to snapshots. A client still
    /// *inside* an observe call may land legs after the barrier; only
    /// completed submissions are covered.
    pub fn drain(&self) {
        self.ask_all(|_| ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamKind;
    use std::panic::AssertUnwindSafe;

    fn skey(rank: u32) -> StreamKey {
        StreamKey::new(rank, StreamKind::Sender)
    }

    fn engine(shards: usize) -> PersistentEngine {
        PersistentEngine::new(EngineConfig::with_shards(shards))
    }

    /// An invalid detector config fails where the engine is built, on
    /// the caller's thread, not on a shard worker at its first stream.
    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_detector_window_panics_at_construction() {
        let mut cfg = EngineConfig::with_shards(1);
        cfg.dpd.window = 0;
        let _ = PersistentEngine::new(cfg);
    }

    #[test]
    #[should_panic(expected = "window must not exceed 65535")]
    fn oversized_detector_window_panics_at_construction() {
        let mut cfg = EngineConfig::with_shards(1);
        cfg.dpd.window = 65_536;
        let _ = PersistentEngine::new(cfg);
    }

    #[test]
    fn observe_then_predict_sees_own_writes() {
        let eng = engine(4);
        let client = eng.client();
        let batch: Vec<Observation> = (0..30)
            .map(|i| Observation::new(skey(0), [7u64, 1, 4][i % 3]))
            .collect();
        client.observe_batch(&batch);
        assert_eq!(client.predict(skey(0), 1), Some(7));
        assert_eq!(client.predict(skey(0), 2), Some(1));
        assert_eq!(client.period_of(skey(0)), Some(3));
        assert!(client.confidence_of(skey(0)).unwrap_or(0.0) > 0.0);
        assert_eq!(eng.clock(), 30);
    }

    #[test]
    fn predict_batch_spans_shards_and_preserves_query_order() {
        let eng = engine(8);
        let client = eng.client();
        for r in 0..16u32 {
            let batch: Vec<Observation> = (0..20)
                .map(|i| Observation::new(skey(r), u64::from(r) + (i % 2)))
                .collect();
            client.observe_batch(&batch);
        }
        let queries: Vec<Query> = (0..16).map(|r| Query::new(skey(r), 1)).collect();
        let mut out = Vec::new();
        client.predict_batch(&queries, &mut out);
        assert_eq!(out.len(), 16);
        for (r, p) in out.iter().enumerate() {
            assert_eq!(*p, Some(r as u64), "rank {r} predicts its own pattern");
        }
        // Stale-output clearing.
        client.predict_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn metrics_count_all_submitted_events() {
        let eng = engine(3);
        let client = eng.client();
        let batch: Vec<Observation> = (0..60)
            .map(|i| Observation::new(skey(i % 6), u64::from(i % 2)))
            .collect();
        client.observe_batch(&batch);
        client.observe(skey(0), 0);
        let total = client.metrics_total();
        assert_eq!(total.events_ingested, 61);
        assert_eq!(total.resident_streams, 6);
        assert_eq!(client.stream_count(), 6);
        assert_eq!(client.metrics().shards.len(), 3);
    }

    #[test]
    fn multiple_clients_share_one_engine() {
        let eng = engine(4);
        let a = eng.client();
        let b = eng.client();
        for i in 0..20u64 {
            a.observe(skey(1), i % 2);
            b.observe(skey(2), i % 3);
        }
        assert_eq!(a.period_of(skey(2)), Some(3), "a sees b's stream");
        assert_eq!(b.period_of(skey(1)), Some(2), "b sees a's stream");
        assert_eq!(eng.clock(), 40);
    }

    #[test]
    fn forced_eviction_resets_streams() {
        let eng = engine(2);
        let client = eng.client();
        for i in 0..20u64 {
            client.observe(skey(5), i % 2);
        }
        assert!(client.period_of(skey(5)).is_some());
        assert!(client.evict_stream(skey(5)));
        assert!(!client.evict_stream(skey(5)), "already evicted");
        assert_eq!(client.period_of(skey(5)), None);
        assert_eq!(client.stream_count(), 0);
        assert_eq!(client.metrics_total().evicted, 1);
    }

    #[test]
    fn ttl_sweeps_idle_streams_in_busy_shards_and_on_demand() {
        let eng = PersistentEngine::new(EngineConfig {
            ttl: Some(10),
            ..EngineConfig::with_shards(2)
        });
        let client = eng.client();
        for i in 0..10u64 {
            client.observe(skey(0), i % 2);
        }
        // Push rank 0 past its TTL with traffic on another rank.
        let filler: Vec<Observation> = (0..30).map(|i| Observation::new(skey(1), i % 2)).collect();
        client.observe_batch(&filler);
        assert_eq!(client.predict(skey(0), 1), None, "expired");
        // rank 0's shard may have been idle; a broadcast sweep always
        // reclaims (0 if the worker already did during its own batch).
        client.sweep_expired();
        assert_eq!(client.stream_count(), 1);
        assert_eq!(client.metrics_total().evicted, 1, "counted exactly once");
    }

    #[test]
    fn evict_lru_takes_globally_oldest() {
        let eng = engine(4);
        let client = eng.client();
        for r in 0..6u32 {
            client.observe_batch(&[Observation::new(skey(r), 1)]);
        }
        client.observe_batch(&[Observation::new(skey(0), 2)]);
        assert_eq!(client.evict_lru(2), 2);
        let mut left: Vec<u32> = (0..6)
            .filter(|&r| client.period_of(skey(r)).is_some() || client.evict_stream(skey(r)))
            .collect();
        // ranks 1 and 2 were the oldest; 0 was refreshed.
        left.sort_unstable();
        assert_eq!(left, vec![0, 3, 4, 5]);
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
        let (solo, multi) = (engine(1).client(), engine(8).client());
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
        let (batched, incremental) = (engine(4).client(), engine(4).client());
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
        let client = engine(2).client();
        for _ in 0..20 {
            for (s, b) in [(1u64, 100u64), (2, 200), (1, 100), (3, 800)] {
                client.observe(StreamKey::new(0, StreamKind::Sender), s);
                client.observe(StreamKey::new(0, StreamKind::Size), b);
            }
        }
        let mut advice = Vec::new();
        client.forecast_messages(0, 4, &mut advice);
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
    fn jobs_namespace_streams_and_roll_up_separately() {
        let client = engine(4).client();
        let ka = StreamKey::for_job(1, 0, StreamKind::Sender);
        let kb = StreamKey::for_job(2, 0, StreamKind::Sender);
        for _ in 0..10 {
            for v in [3u64, 9] {
                client.observe(ka, v);
            }
            client.observe(kb, 5);
        }
        // Same rank + kind, different jobs: independent predictors.
        assert_eq!(client.predict(ka, 1), Some(3));
        assert_eq!(client.predict(kb, 1), Some(5));
        assert_eq!(client.period_of(ka), Some(2));
        assert_eq!(client.period_of(kb), Some(1));
        assert_eq!(client.resident_jobs(), vec![1, 2]);
        let jobs = client.job_metrics();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].1.events_ingested, 20);
        assert_eq!(jobs[1].1.events_ingested, 10);
        // Per-job forecasts come from the job's own namespace.
        let mut advice = Vec::new();
        client.forecast_messages_for_job(2, 0, 1, &mut advice);
        assert_eq!(advice, vec![(Some(5), None)]);
        // Evicting job 1 leaves job 2 untouched.
        assert_eq!(client.evict_job(1), 1);
        assert_eq!(client.resident_jobs(), vec![2]);
        assert_eq!(client.predict(ka, 1), None, "evicted job restarts cold");
        assert_eq!(client.predict(kb, 1), Some(5));
    }

    #[test]
    fn metrics_aggregate_across_shards() {
        let client = engine(4).client();
        let batch = periodic_batch(8, 10, |_| vec![1, 2, 3]);
        client.observe_batch(&batch);
        let total = client.metrics_total();
        assert_eq!(total.events_ingested, batch.len() as u64);
        assert_eq!(total.resident_streams, 8);
        assert!(total.hits > 0, "periodic streams must eventually hit");
        assert!(total.max_batch_depth > 0);
        let per_shard = client.metrics();
        assert_eq!(per_shard.shards.len(), 4);
        let sum: u64 = per_shard.shards.iter().map(|m| m.events_ingested).sum();
        assert_eq!(sum, batch.len() as u64);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let client = engine(4).client();
        client.observe_batch(&[]);
        assert_eq!(client.metrics_total().events_ingested, 0);
        assert_eq!(client.engine().clock(), 0);
        let mut out = vec![Some(1)];
        client.predict_batch(&[], &mut out);
        assert!(out.is_empty(), "predict_batch clears stale output");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = engine(0);
    }

    #[test]
    fn ttl_evicts_idle_streams_and_reclaims_memory() {
        let client = PersistentEngine::new(EngineConfig {
            ttl: Some(50),
            ..EngineConfig::with_shards(4)
        })
        .client();
        // Rank 0 trains then goes idle; rank 1 keeps the clock moving.
        let train = periodic_batch(1, 10, |_| vec![4, 5]);
        client.observe_batch(&train);
        assert_eq!(client.predict(skey(0), 1), Some(4));
        let filler: Vec<Observation> = (0..100).map(|i| Observation::new(skey(1), i % 2)).collect();
        client.observe_batch(&filler);
        assert_eq!(client.predict(skey(0), 1), None, "expired stream");
        client.sweep_expired();
        assert_eq!(client.stream_count(), 1, "sweep reclaimed rank 0");
        assert_eq!(client.metrics_total().evicted, 1);
        // The stream restarts cold on return.
        client.observe(skey(0), 4);
        assert_eq!(client.period_of(skey(0)), None);
    }

    #[test]
    fn forced_eviction_is_global_lru() {
        let client = engine(4).client();
        for r in 0..6u32 {
            client.observe(skey(r), 1);
        }
        client.observe(skey(0), 2); // refresh rank 0
        assert_eq!(client.evict_lru(2), 2, "ranks 1 and 2 are oldest");
        assert_eq!(client.stream_count(), 4);
        assert!(client.evict_stream(skey(0)));
        assert_eq!(client.stream_count(), 3);
        assert_eq!(client.metrics_total().evicted, 3);
        assert_eq!(client.sweep_expired(), 0, "no ttl, nothing expires");
    }

    /// The worker applies each observe leg through the shard's one
    /// batch loop: the leg's size lands in `max_batch_depth` and, with
    /// telemetry on, the leg is timed once — per leg, not per batch.
    #[test]
    fn worker_legs_record_depth_and_one_timing_per_leg() {
        let eng = PersistentEngine::new(
            EngineConfig::with_shards(2).with_telemetry(mpp_telemetry::TelemetryConfig::enabled()),
        );
        let client = eng.client();
        let ranks: Vec<u32> = (0..16).collect();
        let on = |s: usize| ranks.iter().filter(|&&r| eng.shard_for(r) == s).count() as u64;
        assert!(on(0) > 0 && on(1) > 0, "both shards get a leg");
        for _ in 0..3 {
            let batch: Vec<Observation> = ranks
                .iter()
                .flat_map(|&r| (0..5).map(move |i| Observation::new(skey(r), i % 2)))
                .collect();
            client.observe_batch(&batch);
        }
        let per_shard = client.metrics().shards;
        for (s, m) in per_shard.iter().enumerate() {
            assert_eq!(m.max_batch_depth, 5 * on(s), "shard {s} leg depth");
            assert_eq!(m.events_ingested, 15 * on(s));
        }
        let snap = client.telemetry().expect("enabled");
        assert_eq!(
            snap.histogram("observe_batch_ns")
                .expect("leg timings")
                .count(),
            6,
            "3 batches x 2 legs"
        );
    }

    #[test]
    fn observe_outcome_reports_full_enqueue_on_unbounded_lanes() {
        let eng = engine(2);
        let client = eng.client();
        let batch: Vec<Observation> = (0..40).map(|i| Observation::new(skey(i % 4), 1)).collect();
        let outcome = client.observe_batch(&batch);
        assert_eq!(
            outcome,
            ObserveOutcome {
                enqueued: 40,
                shed: 0
            }
        );
        assert!(outcome.complete());
        assert_eq!(client.observe_batch(&[]), ObserveOutcome::default());
    }

    #[test]
    fn shed_policy_accounts_dropped_events_exactly() {
        let eng = PersistentEngine::new(
            EngineConfig::with_shards(1)
                .with_queue_cap(1)
                .with_backpressure(BackpressurePolicy::Shed),
        );
        // Stall the lone worker so the lane (cap 1) genuinely fills.
        eng.debug_throttle_worker(0, Duration::from_millis(30));
        let client = eng.client();
        let batch: Vec<Observation> = (0..10).map(|_| Observation::new(skey(0), 1)).collect();
        let mut enqueued = 0;
        let mut shed = 0;
        for _ in 0..6 {
            let o = client.observe_batch(&batch);
            enqueued += o.enqueued;
            shed += o.shed;
        }
        assert_eq!(enqueued + shed, 60, "every event accounted once");
        assert!(shed > 0, "a stalled cap-1 lane must shed");
        eng.debug_throttle_worker(0, Duration::ZERO);
        let total = client.metrics_total();
        assert_eq!(total.shed_events, shed, "metric matches outcomes");
        assert_eq!(total.events_ingested, enqueued, "only enqueued ingest");
    }

    #[test]
    fn block_policy_counts_blocked_sends_but_delivers_everything() {
        let eng = PersistentEngine::new(EngineConfig::with_shards(1).with_queue_cap(1));
        eng.debug_throttle_worker(0, Duration::from_millis(2));
        let client = eng.client();
        let batch: Vec<Observation> = (0..5).map(|_| Observation::new(skey(0), 1)).collect();
        for _ in 0..8 {
            assert!(client.observe_batch(&batch).complete());
        }
        eng.debug_throttle_worker(0, Duration::ZERO);
        let total = client.metrics_total();
        assert_eq!(total.events_ingested, 40, "Block never drops");
        assert_eq!(total.shed_events, 0);
        assert!(total.send_blocked > 0, "stalled lane must have blocked");
        assert_eq!(total.queue_high_water, 1, "cap-1 lane high water is 1");
    }

    /// A client whose shard lanes end in receivers the test holds
    /// instead of workers, so the test can inspect what it sends.
    fn client_with_open_lanes(cfg: EngineConfig) -> (EngineClient, Vec<Receiver<ShardCmd>>) {
        let (senders, lanes): (Vec<_>, Vec<_>) = (0..cfg.shards).map(|_| unbounded()).unzip();
        let eng = PersistentEngine {
            inner: Arc::new(Inner {
                lanes: senders.iter().map(|_| LaneStats::default()).collect(),
                cfg,
                senders,
                workers: Vec::new(),
                wal: None,
                wal_writer: None,
                clock: AtomicU64::new(0),
                job_clocks: RwLock::new(FxHashMap::default()),
                telemetry: None,
            }),
        };
        (eng.client(), lanes)
    }

    /// Every observe leg is allocated once, at exactly its event
    /// count, and carries its shard's share of the batch in batch
    /// order: plain legs without a TTL, and with one stamped legs whose
    /// stamps count on along each job's own clock.
    #[test]
    fn every_observe_leg_is_allocated_at_its_exact_size() {
        const SHARDS: usize = 3;
        for ttl in [None, Some(1_000)] {
            let (client, lanes) = client_with_open_lanes(EngineConfig {
                ttl,
                ..EngineConfig::with_shards(SHARDS)
            });
            let mut job_clocks = [0u64; 2];
            for n in [5u32, 7, 13, 100, 1_000, 70_001] {
                let batch: Vec<(Observation, u64)> = (0..n)
                    .map(|i| {
                        let key = StreamKey::for_job(i % 2, i % 7, StreamKind::Sender);
                        job_clocks[key.job as usize] += 1;
                        let stamp = job_clocks[key.job as usize];
                        (Observation::new(key, u64::from(i % 5)), stamp)
                    })
                    .collect();
                let events: Vec<Observation> = batch.iter().map(|&(o, _)| o).collect();
                assert!(client.observe_batch(&events).complete());
                for (s, lane) in lanes.iter().enumerate() {
                    let want: Vec<(Observation, u64)> = batch
                        .iter()
                        .filter(|(o, _)| shard_of_key(o.key, SHARDS) == s)
                        .copied()
                        .collect();
                    if want.is_empty() {
                        assert!(lane.is_empty(), "batch {n}: no leg for an idle shard");
                        continue;
                    }
                    let Ok(ShardCmd::Observe { leg, .. }) = lane.try_recv() else {
                        panic!("batch {n}: shard {s} got no observe leg");
                    };
                    let capacity = match leg {
                        Leg::Plain(got) => {
                            assert!(ttl.is_none(), "a TTL engine stamps its legs");
                            let plain: Vec<Observation> = want.iter().map(|&(o, _)| o).collect();
                            assert_eq!(got, plain, "batch {n}: shard {s} leg contents");
                            got.capacity()
                        }
                        Leg::Stamped(got) => {
                            assert!(ttl.is_some(), "stamps only under a TTL");
                            assert_eq!(got, want, "batch {n}: shard {s} leg contents");
                            got.capacity()
                        }
                    };
                    assert_eq!(capacity, want.len(), "batch {n}: shard {s} leg capacity");
                    assert!(lane.is_empty(), "batch {n}: one leg per shard");
                }
            }
        }
    }
    #[test]
    fn dead_worker_surfaces_worker_gone_instead_of_silent_drop() {
        let eng = engine(4);
        let client = eng.client();
        client.observe_batch(&[Observation::new(skey(0), 1)]);
        let dead = eng.shard_for(0);
        eng.debug_kill_worker(dead, true);
        let err = client
            .try_observe_batch(&[Observation::new(skey(0), 2)])
            .unwrap_err();
        assert_eq!(err, WorkerGone { shard: dead });
        assert!(err.to_string().contains("shard worker"), "{err}");
        // Ranks on healthy shards still ingest.
        let healthy = (1..64)
            .find(|&r| eng.shard_for(r) != dead)
            .expect("some rank on another shard");
        assert!(client
            .try_observe_batch(&[Observation::new(skey(healthy), 1)])
            .is_ok());
    }

    /// A rank whose streams live on `shard`.
    fn rank_on(eng: &PersistentEngine, shard: usize) -> u32 {
        (0..64)
            .find(|&r| eng.shard_for(r) == shard)
            .expect("a rank on every shard")
    }

    #[test]
    fn slow_healthy_shard_answers_while_a_sibling_worker_is_dead() {
        let eng = engine(2);
        let client = eng.client();
        let r1 = rank_on(&eng, 1);
        for i in 0..20u64 {
            client.observe(skey(r1), i % 2);
        }
        eng.debug_kill_worker(0, true);
        // The answer takes several liveness polls, each of which finds
        // shard 0's worker finished; only the asked shard counts.
        eng.debug_throttle_worker(1, Duration::from_millis(400));
        assert_eq!(client.period_of(skey(r1)), Some(2));
    }

    #[test]
    fn a_reply_left_by_an_aborted_query_is_not_handed_to_the_next() {
        let eng = engine(2);
        let client = eng.client();
        let r0 = rank_on(&eng, 0);
        for i in 0..20u64 {
            client.observe(skey(r0), i % 3);
        }
        // Shard 0 takes the job-metrics query and answers late; shard
        // 1's closed lane aborts the collection first.
        eng.debug_throttle_worker(0, Duration::from_millis(100));
        eng.debug_kill_worker(1, true);
        let aborted = std::panic::catch_unwind(AssertUnwindSafe(|| client.job_metrics()))
            .expect_err("a dead shard fails the broadcast");
        assert_eq!(
            aborted.downcast_ref::<String>(),
            Some(&WorkerGone { shard: 1 }.to_string())
        );
        eng.debug_throttle_worker(0, Duration::ZERO);
        // Shard 0's stale job-metrics reply reaches the lane first.
        assert_eq!(client.period_of(skey(r0)), Some(3));
    }

    #[test]
    fn spawn_failure_reporting_is_wired() {
        // Thread spawn cannot be forced to fail portably here, but the
        // fallible constructor must exist and succeed on a sane config
        // (its cleanup path is exercised by code review + type checks).
        let eng = PersistentEngine::try_new(EngineConfig::with_shards(2)).expect("spawn");
        assert_eq!(eng.shard_count(), 2);
        let msg = SpawnError {
            shard: 3,
            source: std::io::Error::other("no threads"),
        }
        .to_string();
        assert!(msg.contains("shard worker 3"), "{msg}");
    }

    #[test]
    fn drop_joins_workers_without_deadlock() {
        let eng = engine(8);
        let client = eng.client();
        client.observe_batch(
            &(0..1000)
                .map(|i| Observation::new(skey(i % 32), u64::from(i % 5)))
                .collect::<Vec<_>>(),
        );
        let second = eng.clone();
        drop(eng);
        drop(client);
        // Workers are still alive through `second`.
        let c2 = second.client();
        assert_eq!(c2.metrics_total().events_ingested, 1000);
        drop(c2);
        drop(second); // last handle: joins all 8 workers
    }
}
