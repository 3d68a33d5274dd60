//! Multi-engine federation: job-partitioned routing over N persistent
//! engines.
//!
//! One [`PersistentEngine`] scales across cores; serving *many
//! concurrent MPI jobs* needs the next layer up — more than one engine,
//! with each job's `(rank, kind)` streams living in exactly one member
//! so tenants never collide. [`FederatedEngine`] is that router:
//!
//! ```text
//!  FederatedClient ──job h(j)=0──▶ member 0 (PersistentEngine, S shards)
//!        │      └────job h(j)=1──▶ member 1 (PersistentEngine, S shards)
//!        └─ per-member EngineClient lanes            ...
//! ```
//!
//! * **Deterministic routing.** A job is served by member
//!   `hash(job) % members` (the same stable Fibonacci hash the shards
//!   use), overridable per job with the explicit pinning API
//!   ([`FederatedEngine::pin_job`]). Routing is a pure function of
//!   `(job, pins, member count)` — never of load or timing — so a
//!   replayed workload always lands on the same members and replays
//!   bit-identically (`tests/federation.rs`). The federation never
//!   moves a job on its own: placement is the hash plus the pins, and
//!   a move is an explicit [`FederatedEngine::migrate_job`] call.
//! * **Job isolation.** Keys carry their [`JobId`], so two jobs never
//!   share a predictor, an interner slot, or a scoring counter.
//!   Evicting or flooding job A cannot change job B's predictions or
//!   its [`JobMetrics`] rollup (property-tested). Time is isolated
//!   too: with [`EngineConfig::ttl`] configured, each job ages on its
//!   *own* event clock — only a job's own traffic advances the clock
//!   that expires its idle streams, so a chatty co-resident tenant can
//!   never age a quiet one out (`tests/persistence.rs`,
//!   `ttl_is_isolated_per_job_on_one_member`).
//! * **Live migration.** [`FederatedEngine::migrate_job`] moves one
//!   quiesced job between members: snapshot on the source, restore on
//!   the target, extract the source copy, repin the route — with the
//!   job's predictions bit-identical across the cut and its per-job
//!   clock carried along (differential-tested in
//!   `tests/federation.rs`, for single moves and for repeated
//!   schedules that move a job away and back). Durable federations
//!   persist the pin table, so recovery routes a moved job back to
//!   the member that holds it.
//! * **Per-job operations.** [`FederatedClient::evict_job`] reclaims
//!   one tenant across every member, [`FederatedClient::resident_jobs`]
//!   lists live tenants, and [`FederatedClient::job_metrics`] rolls
//!   each job's scoring counters up across shards and members.
//! * **Failure attribution.** A dead shard worker inside a member
//!   surfaces as [`FederationWorkerGone`] carrying the job whose leg
//!   hit the dead lane, the member index, and the underlying
//!   [`WorkerGone`] — while other jobs (and other members) keep
//!   serving.
//!
//! The single-member federation is the compatibility mode:
//! [`FederatedEngine::from_members`] with one engine routes every job
//! to it, and job-0 traffic through a [`FederatedClient`] takes a
//! copy-free fast path straight into the member's [`EngineClient`] —
//! bit-identical to using the engine directly.

use crate::config::EngineConfig;
use crate::metrics::{
    merge_job_model_rollups, merge_job_rollups, merge_model_stats, EngineMetrics, JobMetrics,
    ModelStats, ShardMetrics,
};
use crate::oplog;
use crate::persistent::{
    EngineClient, ObserveOutcome, PersistentEngine, RecoverError, RecoveryReport, SpawnError,
    WorkerGone,
};
use crate::snapshot::{fnv1a, SnapshotError};
use crate::types::{JobId, Observation, Query, RankId, StreamKey, DEFAULT_JOB};
use mpp_telemetry::{FlightEvent, FlightKind, FlightRecorder, Histogram, TelemetrySnapshot};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Stable job→member hash (the Fibonacci multiplicative hash shared
/// with the shard router). Pure and platform-independent: routing can
/// never depend on load or timing.
#[inline]
fn member_hash(job: JobId, members: usize) -> usize {
    (u64::from(job).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % members
}

/// Leading bytes of the persisted pin table.
const PINS_MAGIC: [u8; 7] = *b"MPPPIN\0";

/// Current pin-table format version.
const PINS_VERSION: u32 = 1;

fn pins_path(base: &Path) -> PathBuf {
    base.join("pins.bin")
}

/// Writes the pin table atomically (temp file + fsync + rename) so a
/// crash mid-write leaves either the old table or the new one, never a
/// torn file. Format: magic, version, count, `(job, member)` pairs,
/// trailing FNV-1a checksum over everything before it.
fn save_pins(base: &Path, pins: &HashMap<JobId, usize>) -> io::Result<()> {
    let mut entries: Vec<(JobId, usize)> = pins.iter().map(|(&j, &m)| (j, m)).collect();
    entries.sort_unstable_by_key(|&(j, _)| j);
    let mut buf = Vec::with_capacity(PINS_MAGIC.len() + 16 + entries.len() * 8);
    buf.extend_from_slice(&PINS_MAGIC);
    buf.extend_from_slice(&PINS_VERSION.to_le_bytes());
    buf.extend_from_slice(
        &u32::try_from(entries.len())
            .expect("pin count fits u32")
            .to_le_bytes(),
    );
    for (job, member) in entries {
        buf.extend_from_slice(&job.to_le_bytes());
        buf.extend_from_slice(
            &u32::try_from(member)
                .expect("member fits u32")
                .to_le_bytes(),
        );
    }
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    oplog::write_atomic(&pins_path(base), &buf)
}

/// Loads the persisted pin table; an absent file is an empty table. A
/// malformed or checksum-failing file, or one whose entries are not in
/// the strictly ascending job order `save_pins` writes, errs with
/// `InvalidData` rather than silently dropping pins — lost pins would
/// re-route migrated jobs to members that do not hold their state
/// (delete `pins.bin` to accept hash routing explicitly).
fn load_pins(base: &Path) -> io::Result<HashMap<JobId, usize>> {
    let path = pins_path(base);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(e),
    };
    let bad = |msg: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("pin table {}: {msg}", path.display()),
        )
    };
    if bytes.len() < PINS_MAGIC.len() + 4 + 4 + 8 {
        return Err(bad("truncated"));
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum.try_into().expect("8-byte checksum"));
    if fnv1a(body) != stored {
        return Err(bad("checksum mismatch"));
    }
    if body[..PINS_MAGIC.len()] != PINS_MAGIC {
        return Err(bad("bad magic"));
    }
    let version = u32::from_le_bytes(body[7..11].try_into().expect("4-byte version"));
    if version != PINS_VERSION {
        return Err(bad("unsupported version"));
    }
    let count = u32::from_le_bytes(body[11..15].try_into().expect("4-byte count")) as usize;
    let rest = &body[15..];
    if rest.len() != count * 8 {
        return Err(bad("entry count does not match file length"));
    }
    let mut pins = HashMap::with_capacity(count);
    let mut prev: Option<JobId> = None;
    for chunk in rest.chunks_exact(8) {
        let job = u32::from_le_bytes(chunk[..4].try_into().expect("4-byte job"));
        let member = u32::from_le_bytes(chunk[4..].try_into().expect("4-byte member")) as usize;
        // `save_pins` writes strictly ascending jobs; any other order
        // (a duplicate job above all) is not a table it wrote.
        if prev.is_some_and(|p| job <= p) {
            return Err(bad("entries not in strictly ascending job order"));
        }
        prev = Some(job);
        pins.insert(job, member);
    }
    Ok(pins)
}

/// Construction parameters for a [`FederatedEngine`].
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of member engines; must be positive.
    pub members: usize,
    /// Configuration applied to every member engine.
    pub member: EngineConfig,
}

impl FederationConfig {
    /// A federation of `members` engines with `shards` shards each and
    /// default detector settings.
    pub fn new(members: usize, shards: usize) -> Self {
        FederationConfig {
            members,
            member: EngineConfig::with_shards(shards),
        }
    }

    /// Replaces the per-member engine configuration.
    pub fn member_config(mut self, member: EngineConfig) -> Self {
        self.member = member;
        self
    }

    fn validate(&self) {
        assert!(self.members > 0, "federation needs at least one member");
    }
}

/// Per-member engine config for slot `i`: with durability configured,
/// each member gets its own `member-{i}` subdirectory so member logs
/// and snapshots never mix (they keep independent engine-time
/// domains).
fn member_config(cfg: &FederationConfig, i: usize) -> EngineConfig {
    let mut member = cfg.member.clone();
    if let Some(d) = member.durability.as_mut() {
        d.dir = d.dir.join(format!("member-{i}"));
    }
    member
}

/// What [`FederatedEngine::recover`] rebuilt, per member plus the
/// routing layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FedRecoveryReport {
    /// One recovery report per member, indexed by member id.
    pub members: Vec<RecoveryReport>,
    /// Job pins restored from the persisted pin table.
    pub pins_restored: usize,
}

impl FedRecoveryReport {
    /// Total events recovered across the federation (snapshots + log
    /// tails).
    pub fn events(&self) -> u64 {
        self.members.iter().map(RecoveryReport::events).sum()
    }
}

/// Error surfaced when a member engine's shard worker is gone,
/// attributed to the job whose batch leg hit the dead lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationWorkerGone {
    /// Job whose traffic found the dead worker.
    pub job: JobId,
    /// Federation member serving that job.
    pub member: usize,
    /// The member-level error (which shard worker died).
    pub gone: WorkerGone,
    /// What the call still accomplished: events dispatched to *other*
    /// (healthy) members' jobs in the same batch. Legs inside an
    /// erring member are not counted (its internal dispatch is
    /// opaque once its lane errs), and the per-shard metrics remain
    /// the exact source of truth either way — this field exists so a
    /// caller never retries events that already landed elsewhere.
    pub outcome: ObserveOutcome,
}

impl std::fmt::Display for FederationWorkerGone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "federation member {} serving job {}: {}",
            self.member, self.job, self.gone
        )
    }
}

impl std::error::Error for FederationWorkerGone {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.gone)
    }
}

/// Typed failure of [`FederatedEngine::migrate_job`] /
/// [`FederatedEngine::try_pin_job`]. Any caller acting on a route it
/// read earlier races concurrent pins and migrations: by the time it
/// asks for a move the route may be stale. That is a *recoverable*
/// condition — re-read the route and decide again — so it must surface
/// as an error value, never a library panic. Every variant except
/// [`MigrateError::Durability`] leaves both members' state untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// A member index is outside the federation.
    MemberOutOfRange {
        /// The offending index.
        member: usize,
        /// Members in the federation.
        members: usize,
    },
    /// `from` is not the member currently serving the job — the route
    /// moved (concurrent pin, earlier migration) after the caller's
    /// snapshot was cut.
    NotServing {
        /// The job whose route was stale.
        job: JobId,
        /// The member actually serving it.
        serving: usize,
        /// The member the caller believed was serving it.
        from: usize,
    },
    /// The snapshot/restore leg failed (config mismatch between
    /// members, or a corrupt payload).
    Snapshot(SnapshotError),
    /// A durable leg failed: a member checkpoint or the pin-table
    /// write hit an I/O error (message preserved). Unlike the other
    /// variants this can leave the migration partially applied *in
    /// memory* — the job may be resident on both members until the
    /// move is retried — but on-disk state is never torn (checkpoints
    /// and the pin table are written atomically) and a crash recovers
    /// to a consistent pre- or post-migration view.
    Durability(String),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::MemberOutOfRange { member, members } => {
                write!(f, "member {member} out of range ({members} members)")
            }
            MigrateError::NotServing { job, serving, from } => {
                write!(f, "job {job} is served by member {serving}, not {from}")
            }
            MigrateError::Snapshot(e) => write!(f, "migration snapshot leg failed: {e}"),
            MigrateError::Durability(msg) => write!(f, "migration durability leg failed: {msg}"),
        }
    }
}

impl std::error::Error for MigrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MigrateError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for MigrateError {
    fn from(e: SnapshotError) -> Self {
        MigrateError::Snapshot(e)
    }
}

/// What one [`FederatedEngine::quiesce_job`] barrier drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuiesceReport {
    /// The quiesced job.
    pub job: JobId,
    /// The member whose lanes were drained (the job's current route).
    pub member: usize,
    /// Whether the job had resident streams on that member once the
    /// barrier completed — `false` for unknown jobs and for jobs whose
    /// state was already evicted or migrated away (the no-op cases).
    pub resident: bool,
}

/// Federation-level telemetry: the routing view the members cannot see.
/// Present only when every member engine was built with telemetry
/// enabled (heterogeneous federations disable the federation layer's
/// own telemetry rather than reporting an incomparable subset).
struct FedTelemetry {
    /// Per-member routing latency: wall time of one member-level
    /// observe dispatch (the member's whole `try_observe_batch`,
    /// including any blocked sends inside it).
    route_ns: Vec<Histogram>,
    /// Federation flight ring: worker-gone sightings with job + member
    /// attribution, and job migrations.
    flight: Mutex<FlightRecorder>,
}

impl FedTelemetry {
    fn push_flight(&self, ev: FlightEvent) {
        self.flight.lock().unwrap().push(ev);
    }
}

/// Shared federation state.
struct FedInner {
    members: Vec<PersistentEngine>,
    /// Explicit job→member overrides; consulted before the hash.
    pins: RwLock<HashMap<JobId, usize>>,
    /// Base durability directory (member `i` logs under
    /// `member-{i}/`, the pin table in `pins.bin`). `None` for
    /// in-memory federations and for [`FederatedEngine::from_members`]
    /// wrappers, whose members own their directories individually.
    durability: Option<PathBuf>,
    /// Federation-level telemetry; `None` unless every member has
    /// telemetry enabled.
    telemetry: Option<FedTelemetry>,
}

impl FedInner {
    /// The single definition of the routing rule: pin first, then the
    /// stable hash. A one-member federation routes everything to
    /// member 0 without touching the pins lock, so the default
    /// single-engine `EngineHandle` path pays no shared-lock cost on
    /// the hot path.
    fn member_of(&self, job: JobId) -> usize {
        if self.members.len() == 1 {
            return 0;
        }
        let pins = self.pins.read().expect("pins lock poisoned");
        match pins.get(&job) {
            Some(&m) => m,
            None => member_hash(job, self.members.len()),
        }
    }

    /// Persists the pin table when the federation is durable (call
    /// with the pins write lock held so writers serialize on the
    /// atomic file swap).
    fn persist_pins(&self, pins: &HashMap<JobId, usize>) -> io::Result<()> {
        match &self.durability {
            Some(base) => save_pins(base, pins),
            None => Ok(()),
        }
    }
}

/// Router over N persistent member engines, partitioning traffic by
/// job. Cheap to clone (`Arc` bump) and `Send + Sync`; hot-path users
/// take a per-thread [`FederatedClient`] via
/// [`FederatedEngine::client`]. See the [module docs](self).
#[derive(Clone)]
pub struct FederatedEngine {
    inner: Arc<FedInner>,
}

impl std::fmt::Debug for FederatedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedEngine")
            .field("members", &self.inner.members.len())
            .finish()
    }
}

impl FederatedEngine {
    /// Spawns `cfg.members` member engines. Panics with the
    /// [`SpawnError`] message if the OS refuses a worker thread.
    pub fn new(cfg: FederationConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor. Members already spawned when a later one
    /// fails are shut down by drop before the error returns.
    ///
    /// With [`EngineConfig::durability`] configured, member `i` logs
    /// under `{dir}/member-{i}` (each member wipes its own
    /// subdirectory, exactly like a fresh
    /// [`PersistentEngine`]), and any stale
    /// pin table in `{dir}` is removed — a fresh federation must not
    /// resurrect a previous run's routing. Use
    /// [`FederatedEngine::recover`] to resume from existing state.
    pub fn try_new(cfg: FederationConfig) -> Result<Self, SpawnError> {
        cfg.validate();
        let members = (0..cfg.members)
            .map(|i| PersistentEngine::try_new(member_config(&cfg, i)))
            .collect::<Result<Vec<_>, _>>()?;
        let durability = cfg.member.durability.map(|d| d.dir);
        if let Some(base) = &durability {
            if let Err(e) = fs::remove_file(pins_path(base)) {
                assert!(
                    e.kind() == io::ErrorKind::NotFound,
                    "cannot reset stale pin table in {}: {e}",
                    base.display()
                );
            }
        }
        Ok(Self::assemble(members, durability, HashMap::new()))
    }

    /// Rebuilds a federation from its durability directory: recovers
    /// every member from `{dir}/member-{i}` (newest valid snapshot +
    /// observation-log tail, with the same corruption fallbacks as
    /// [`PersistentEngine::recover`](crate::PersistentEngine::recover))
    /// and restores the persisted pin table, so migrated jobs route
    /// back to the members that hold their state. `cfg` must carry the
    /// same member count and durability directory the crashed
    /// federation ran with.
    ///
    /// Errs — never panics, never partially applies — when a member's
    /// recovery fails hard (see
    /// [`RecoverError`]) or the pin
    /// table is unreadable/corrupt (`RecoverError::Io` with
    /// `InvalidData`; delete `pins.bin` to explicitly accept hash
    /// routing instead).
    ///
    /// # Panics
    ///
    /// Panics when `cfg` has no durability configured — recovery
    /// without a directory is a caller bug, not a runtime condition.
    pub fn recover(cfg: FederationConfig) -> Result<(Self, FedRecoveryReport), RecoverError> {
        cfg.validate();
        let base = cfg
            .member
            .durability
            .as_ref()
            .map(|d| d.dir.clone())
            .expect("FederatedEngine::recover needs EngineConfig::durability configured");
        let mut members = Vec::with_capacity(cfg.members);
        let mut reports = Vec::with_capacity(cfg.members);
        for i in 0..cfg.members {
            let (eng, report) = PersistentEngine::recover(member_config(&cfg, i))?;
            members.push(eng);
            reports.push(report);
        }
        let pins = load_pins(&base)?;
        if let Some((&job, &member)) = pins.iter().find(|&(_, &m)| m >= cfg.members) {
            return Err(RecoverError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "pin table routes job {job} to member {member}, \
                     but the federation has {} members",
                    cfg.members
                ),
            )));
        }
        let pins_restored = pins.len();
        let fed = Self::assemble(members, Some(base), pins);
        Ok((
            fed,
            FedRecoveryReport {
                members: reports,
                pins_restored,
            },
        ))
    }

    /// Wraps already-running engines as federation members (member `i`
    /// is `members[i]`). The one-element case is the compatibility
    /// wrapper: every job routes to the lone engine, and job-0 traffic
    /// is bit-identical to driving the engine directly. Members may be
    /// individually durable, but the federation layer itself is not
    /// (no shared directory — pins are not persisted); build with
    /// [`FederationConfig`] for durable routing.
    pub fn from_members(members: Vec<PersistentEngine>) -> Self {
        assert!(!members.is_empty(), "federation needs at least one member");
        Self::assemble(members, None, HashMap::new())
    }

    /// A single-member federation over a freshly spawned engine.
    pub fn single(cfg: EngineConfig) -> Self {
        Self::from_members(vec![PersistentEngine::new(cfg)])
    }

    fn assemble(
        members: Vec<PersistentEngine>,
        durability: Option<PathBuf>,
        pins: HashMap<JobId, usize>,
    ) -> Self {
        let telemetry = members
            .iter()
            .all(|m| m.config().telemetry.enabled)
            .then(|| FedTelemetry {
                route_ns: members.iter().map(|_| Histogram::new()).collect(),
                flight: Mutex::new(FlightRecorder::new(
                    members[0].config().telemetry.flight_capacity,
                )),
            });
        FederatedEngine {
            inner: Arc::new(FedInner {
                members,
                pins: RwLock::new(pins),
                durability,
                telemetry,
            }),
        }
    }

    /// Number of member engines.
    pub fn member_count(&self) -> usize {
        self.inner.members.len()
    }

    /// Direct handle to member `i` (post-run inspection, tests, and
    /// chaos injection).
    pub fn member(&self, i: usize) -> &PersistentEngine {
        &self.inner.members[i]
    }

    /// The member serving `job`: its pin if one is set, otherwise the
    /// stable hash (single-member federations always answer 0).
    pub fn member_of(&self, job: JobId) -> usize {
        self.inner.member_of(job)
    }

    /// Pins `job` to `member`, overriding the hash route. Pin before
    /// serving the job's traffic: pinning a job that already has
    /// resident streams strands that state on the old member (new
    /// traffic restarts cold on the new one; reclaim the remnant with
    /// [`FederatedClient::evict_job`], which reaches every member).
    ///
    /// Errs with [`MigrateError::MemberOutOfRange`] — without touching
    /// the pin table — when `member` is outside the federation, so a
    /// caller acting on a stale membership view recovers instead of
    /// panicking; or with
    /// [`MigrateError::Durability`] when the federation is durable and
    /// the pin table cannot be written (the in-memory pin is applied
    /// either way — routing and its persisted record never silently
    /// diverge without a surfaced error).
    pub fn try_pin_job(&self, job: JobId, member: usize) -> Result<(), MigrateError> {
        let members = self.inner.members.len();
        if member >= members {
            return Err(MigrateError::MemberOutOfRange { member, members });
        }
        let mut pins = self.inner.pins.write().expect("pins lock poisoned");
        pins.insert(job, member);
        self.inner
            .persist_pins(&pins)
            .map_err(|e| MigrateError::Durability(format!("cannot persist pin table: {e}")))
    }

    /// Panicking convenience over [`FederatedEngine::try_pin_job`] for
    /// hand-written call sites where an out-of-range member (or a
    /// failing durable pin-table write) is a caller/operator bug.
    ///
    /// # Panics
    ///
    /// Panics when `member` is out of range or the pin table cannot be
    /// persisted.
    pub fn pin_job(&self, job: JobId, member: usize) {
        self.try_pin_job(job, member).unwrap_or_else(|e| {
            panic!("pin failed: {e}");
        });
    }

    /// Removes `job`'s pin, returning it to the hash route.
    ///
    /// # Panics
    ///
    /// Panics when the federation is durable and the pin table cannot
    /// be rewritten.
    pub fn unpin_job(&self, job: JobId) {
        let mut pins = self.inner.pins.write().expect("pins lock poisoned");
        pins.remove(&job);
        self.inner
            .persist_pins(&pins)
            .unwrap_or_else(|e| panic!("cannot persist pin table: {e}"));
    }

    /// Quiesces `job`'s already-submitted ingest: blocks until every
    /// command enqueued on the serving member's shard lanes — by *any*
    /// client — has been processed. Command lanes are shared per shard
    /// and FIFO, so after this returns, every observation whose
    /// `observe_batch` call had completed before the quiesce is fully
    /// ingested and will be captured by a subsequent
    /// [`FederatedEngine::migrate_job`] snapshot. Only a client still
    /// *inside* an observe call for this job can land events after the
    /// barrier; concurrent ingest to jobs on *other* members is
    /// unaffected and always safe (pinned in `tests/federation.rs`).
    ///
    /// Idempotent by construction: draining an already-drained member
    /// is a no-op barrier, and quiescing a job the federation has
    /// never seen simply drains its hash-routed member. The returned
    /// [`QuiesceReport`] says which member was drained and whether the
    /// job actually had resident streams there — so orchestration code
    /// can tell "quiesced real state" from "nothing to quiesce"
    /// without a second query (`tests/federation.rs`).
    pub fn quiesce_job(&self, job: JobId) -> QuiesceReport {
        let member = self.member_of(job);
        let client = self.inner.members[member].client();
        client.drain();
        QuiesceReport {
            job,
            member,
            resident: client.resident_jobs().contains(&job),
        }
    }

    /// Migrates `job` live from member `from` to member `to`,
    /// returning how many resident streams moved. The sequence is
    /// drain-source → snapshot-on-source → restore-on-target → pin →
    /// extract-on-source, so routing always points at a member that
    /// holds the state: queries served mid-migration see the source
    /// copy until the moment the route flips, then the (identical)
    /// target copy. The job's predictor states, symbol histories,
    /// scoring rollup, and per-job time-domain clock all move, so
    /// predictions after the cut are bit-identical to an uninterrupted
    /// run (differential-tested in `tests/federation.rs`).
    ///
    /// Durable federations add two checkpoint legs: the target member
    /// checkpoints after the restore (restores travel the command
    /// lanes, not the observation log — without an anchor a
    /// post-migration crash on the target would recover without the
    /// job) and the source checkpoints after the extraction (its log
    /// still holds the job's observations — without an anchor a crash
    /// would resurrect the moved job on the source). The pin is
    /// persisted between them, so a crash in any window recovers to a
    /// routable state: before the pin write the job recovers on the
    /// source, after it on the target; a leftover copy on the other
    /// member is unreachable by routing and reclaimable with
    /// [`FederatedClient::evict_job`].
    ///
    /// The source member is drained first (the
    /// [`FederatedEngine::quiesce_job`] barrier), so every observation
    /// whose submission completed before this call is captured by the
    /// snapshot — fully-submitted events are never lost at the cut.
    /// The caller's only remaining duty is to stop *new* submissions
    /// for this job for the duration: a client still mid-call when the
    /// drain runs can land events between snapshot and extraction,
    /// and those land on the source and leave with it.
    ///
    /// Errs — with both members' state untouched — when:
    /// * `from` or `to` is out of range
    ///   ([`MigrateError::MemberOutOfRange`]),
    /// * `from` no longer serves `job` (stale route after a concurrent
    ///   pin or migration; [`MigrateError::NotServing`]),
    /// * the members run incompatible configurations (different TTL,
    ///   detector, or ensemble settings;
    ///   [`MigrateError::Snapshot`] wrapping
    ///   [`SnapshotError::ConfigMismatch`] — shard counts may differ,
    ///   the streams re-partition).
    ///
    /// A failing durable leg errs with [`MigrateError::Durability`];
    /// see that variant for the (in-memory-only) partial-application
    /// caveat.
    pub fn migrate_job(&self, job: JobId, from: usize, to: usize) -> Result<usize, MigrateError> {
        let members = self.inner.members.len();
        if from >= members {
            return Err(MigrateError::MemberOutOfRange {
                member: from,
                members,
            });
        }
        if to >= members {
            return Err(MigrateError::MemberOutOfRange {
                member: to,
                members,
            });
        }
        let serving = self.member_of(job);
        if serving != from {
            return Err(MigrateError::NotServing { job, serving, from });
        }
        if from == to {
            return Ok(0);
        }
        let durable = self.inner.durability.is_some();
        let src = self.inner.members[from].client();
        // Quiesce: everything submitted before this call is ingested
        // before the snapshot cut.
        src.drain();
        let snap = src.snapshot_job(job);
        // Restore on the target before extracting from the source: a
        // config mismatch fails here with both members unchanged.
        let dst = self.inner.members[to].client();
        let (_, moved) = dst.restore_job(&snap)?;
        // Anchor the restored copy on disk before the route flips
        // (same client as the restore, so the lane FIFO guarantees the
        // snapshot sees it).
        if durable {
            dst.checkpoint().map_err(|e| {
                MigrateError::Durability(format!("checkpoint of target member {to} failed: {e}"))
            })?;
        }
        self.try_pin_job(job, to)?;
        src.extract_job(job);
        // Anchor the extraction: the source's log still holds the
        // job's observations, and only a snapshot past them stops
        // recovery from resurrecting the moved job here.
        if durable {
            src.checkpoint().map_err(|e| {
                MigrateError::Durability(format!("checkpoint of source member {from} failed: {e}"))
            })?;
        }
        if let Some(tel) = self.inner.telemetry.as_ref() {
            tel.push_flight(FlightEvent {
                at: self.inner.members[to].clock(),
                kind: FlightKind::JobMigrated,
                member: from as u32,
                shard: 0,
                job,
                a: moved as u64,
                b: to as u64,
            });
        }
        Ok(moved)
    }

    /// Creates a client: one private lane into every member. One per
    /// thread.
    pub fn client(&self) -> FederatedClient {
        FederatedClient {
            inner: Arc::clone(&self.inner),
            clients: self
                .inner
                .members
                .iter()
                .map(PersistentEngine::client)
                .collect(),
            job_scratch: RefCell::new(Vec::new()),
        }
    }

    /// Total events submitted across the federation (sum of member
    /// clocks; members keep independent engine-time domains).
    pub fn clock(&self) -> u64 {
        self.inner.members.iter().map(PersistentEngine::clock).sum()
    }
}

/// Per-member, per-shard metrics snapshot of a federation.
#[derive(Debug, Clone, Default)]
pub struct FederationMetrics {
    /// Per-member engine snapshots, indexed by member id.
    pub members: Vec<EngineMetrics>,
}

impl FederationMetrics {
    /// Sum of every member's shard counters (`max_batch_depth` and
    /// `queue_high_water` aggregate by max).
    pub fn total(&self) -> ShardMetrics {
        let mut out = ShardMetrics::default();
        for m in &self.members {
            out.merge(&m.total());
        }
        out
    }
}

/// A per-thread client of a [`FederatedEngine`]: one private
/// [`EngineClient`] lane per member plus the job-partitioning scratch.
/// `Send` but not `Sync` — clone the federation handle and make one
/// client per thread, exactly like [`EngineClient`].
pub struct FederatedClient {
    inner: Arc<FedInner>,
    clients: Vec<EngineClient>,
    /// Per-job partition scratch reused across `observe_batch` calls
    /// (job list and event buffers keep their capacity).
    job_scratch: RefCell<Vec<(JobId, Vec<Observation>)>>,
}

impl std::fmt::Debug for FederatedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedClient")
            .field("members", &self.clients.len())
            .finish()
    }
}

impl FederatedClient {
    /// The federation handle this client talks to.
    pub fn federation(&self) -> FederatedEngine {
        FederatedEngine {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of member engines.
    pub fn member_count(&self) -> usize {
        self.clients.len()
    }

    /// The member serving `job` (pin, then hash; single-member
    /// federations always answer 0, without touching the pins lock).
    pub fn member_of(&self, job: JobId) -> usize {
        self.inner.member_of(job)
    }

    /// The member client serving `key`'s job.
    fn client_of(&self, job: JobId) -> &EngineClient {
        &self.clients[self.member_of(job)]
    }

    /// Records a member's routing latency sample (telemetry only).
    fn note_route(&self, member: usize, t0: Option<Instant>) {
        if let (Some(t0), Some(tel)) = (t0, self.inner.telemetry.as_ref()) {
            tel.route_ns[member].record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Records a worker-gone sighting with full job + member + shard
    /// attribution in the federation flight ring.
    fn note_worker_gone(&self, job: JobId, member: usize, gone: WorkerGone, events: u64) {
        if let Some(tel) = self.inner.telemetry.as_ref() {
            tel.push_flight(FlightEvent {
                at: self.clients[member].engine_time(),
                kind: FlightKind::WorkerGone,
                member: member as u32,
                shard: gone.shard as u32,
                job,
                a: events,
                b: 0,
            });
        }
    }

    /// Submits `batch` for ingestion, routing each event to its job's
    /// member, reporting the summed backpressure outcome. Errs with
    /// job/member attribution if a member's shard worker is gone; legs
    /// for healthy members are still dispatched first, and the error
    /// carries what they enqueued/shed so callers never blind-retry
    /// events that already landed. Single-job batches (the common
    /// serving shape) are forwarded without copying.
    pub fn try_observe_batch(
        &self,
        batch: &[Observation],
    ) -> Result<ObserveOutcome, FederationWorkerGone> {
        let mut outcome = ObserveOutcome::default();
        let Some(first) = batch.first() else {
            return Ok(outcome);
        };
        // Fast path: one job in the whole batch — no partitioning copy.
        if batch.iter().all(|o| o.key.job == first.key.job) {
            let job = first.key.job;
            let member = self.member_of(job);
            let t0 = self.inner.telemetry.as_ref().map(|_| Instant::now());
            let res = self.clients[member].try_observe_batch(batch);
            self.note_route(member, t0);
            return res.map_err(|gone| {
                self.note_worker_gone(job, member, gone, batch.len() as u64);
                FederationWorkerGone {
                    job,
                    member,
                    gone,
                    outcome: ObserveOutcome::default(),
                }
            });
        }
        // Partition by job (first-appearance order), reusing scratch
        // buffers across calls. Job counts per batch are small, so the
        // linear job lookup beats hashing.
        let mut scratch = self.job_scratch.borrow_mut();
        let mut active = 0usize;
        for obs in batch {
            let job = obs.key.job;
            let slot = match scratch[..active].iter().position(|&(j, _)| j == job) {
                Some(i) => i,
                None => {
                    if active == scratch.len() {
                        scratch.push((job, Vec::new()));
                    } else {
                        scratch[active].0 = job;
                        scratch[active].1.clear();
                    }
                    active += 1;
                    active - 1
                }
            };
            scratch[slot].1.push(*obs);
        }
        let mut err: Option<FederationWorkerGone> = None;
        for (job, events) in &mut scratch[..active] {
            let member = self.member_of(*job);
            let t0 = self.inner.telemetry.as_ref().map(|_| Instant::now());
            let res = self.clients[member].try_observe_batch(events);
            self.note_route(member, t0);
            match res {
                Ok(o) => {
                    outcome.enqueued += o.enqueued;
                    outcome.shed += o.shed;
                }
                // Keep serving the healthy members' legs; report the
                // first dead lane once everything is dispatched.
                Err(gone) => {
                    self.note_worker_gone(*job, member, gone, events.len() as u64);
                    err = err.or(Some(FederationWorkerGone {
                        job: *job,
                        member,
                        gone,
                        outcome: ObserveOutcome::default(),
                    }));
                }
            }
            events.clear();
        }
        match err {
            // The healthy members' accounting rides along on the error.
            Some(mut e) => {
                e.outcome = outcome;
                Err(e)
            }
            None => Ok(outcome),
        }
    }

    /// Submits `batch` for ingestion, panicking with job/member
    /// attribution if a member's shard worker is gone.
    pub fn observe_batch(&self, batch: &[Observation]) -> ObserveOutcome {
        self.try_observe_batch(batch)
            .unwrap_or_else(|gone| panic!("{gone}"))
    }

    /// Ingests a single observation (convenience; batching is the
    /// throughput path).
    pub fn observe(&self, key: StreamKey, value: u64) {
        self.observe_batch(&[Observation::new(key, value)]);
    }

    /// Serves one query from the member owning `key`'s job.
    pub fn predict(&self, key: StreamKey, horizon: u32) -> Option<u64> {
        self.client_of(key.job).predict(key, horizon)
    }

    /// Serves `queries`, writing one entry per query into `out`
    /// (cleared first), routing each query to its job's member.
    pub fn predict_batch(&self, queries: &[Query], out: &mut Vec<Option<u64>>) {
        out.clear();
        let Some(first) = queries.first() else {
            return;
        };
        if queries.iter().all(|q| q.key.job == first.key.job) {
            self.client_of(first.key.job).predict_batch(queries, out);
            return;
        }
        out.resize(queries.len(), None);
        let mut legs: Vec<(Vec<Query>, Vec<u32>)> = vec![Default::default(); self.clients.len()];
        for (i, q) in queries.iter().enumerate() {
            let m = self.member_of(q.key.job);
            legs[m].0.push(*q);
            legs[m].1.push(i as u32);
        }
        let mut answers = Vec::new();
        for (m, (leg, pos)) in legs.into_iter().enumerate() {
            if leg.is_empty() {
                continue;
            }
            self.clients[m].predict_batch(&leg, &mut answers);
            for (p, i) in answers.iter().zip(pos) {
                out[i as usize] = *p;
            }
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

    /// The next `depth` forecast (sender, size) pairs for `rank`
    /// inside `job`'s namespace.
    pub fn forecast_messages_for_job(
        &self,
        job: JobId,
        rank: RankId,
        depth: usize,
        out: &mut Vec<(Option<u64>, Option<u64>)>,
    ) {
        self.client_of(job)
            .forecast_messages_for_job(job, rank, depth, out);
    }

    /// Detected period of a stream, if locked and not expired.
    pub fn period_of(&self, key: StreamKey) -> Option<usize> {
        self.client_of(key.job).period_of(key)
    }

    /// Detector confidence of a stream's lock.
    pub fn confidence_of(&self, key: StreamKey) -> Option<f64> {
        self.client_of(key.job).confidence_of(key)
    }

    /// Forcibly evicts one stream wherever it is resident (the owning
    /// member plus any pinned-away remnant), returning whether any
    /// member held it.
    pub fn evict_stream(&self, key: StreamKey) -> bool {
        let mut hit = false;
        for c in &self.clients {
            hit |= c.evict_stream(key);
        }
        hit
    }

    /// Forcibly evicts every resident stream of `job` on every member,
    /// returning how many streams were removed.
    pub fn evict_job(&self, job: JobId) -> usize {
        self.clients.iter().map(|c| c.evict_job(job)).sum()
    }

    /// Sweeps every member now, returning how many expired streams
    /// were reclaimed.
    pub fn sweep_expired(&self) -> usize {
        self.clients.iter().map(EngineClient::sweep_expired).sum()
    }

    /// Jobs with at least one resident stream anywhere, ascending.
    pub fn resident_jobs(&self) -> Vec<JobId> {
        let mut jobs: Vec<JobId> = self
            .clients
            .iter()
            .flat_map(EngineClient::resident_jobs)
            .collect();
        jobs.sort_unstable();
        jobs.dedup();
        jobs
    }

    /// Per-job scoring rollups summed across members, ascending by job.
    pub fn job_metrics(&self) -> Vec<(JobId, JobMetrics)> {
        merge_job_rollups(self.clients.iter().map(EngineClient::job_metrics).collect())
    }

    /// One job's rollup summed across the federation.
    pub fn job_metrics_of(&self, job: JobId) -> JobMetrics {
        self.job_metrics()
            .into_iter()
            .find(|&(j, _)| j == job)
            .map(|(_, m)| m)
            .unwrap_or_default()
    }

    /// Per-model champion/challenger counters summed across members,
    /// positional over the ensemble roster (index 0 = primary DPD).
    /// Empty when no member runs an ensemble.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        merge_model_stats(self.clients.iter().map(EngineClient::model_stats))
    }

    /// Per-job per-model counters summed across members, ascending by
    /// job — the per-model analogue of [`FederatedClient::job_metrics`].
    pub fn job_model_stats(&self) -> Vec<(JobId, Vec<ModelStats>)> {
        merge_job_model_rollups(
            self.clients
                .iter()
                .map(EngineClient::job_model_stats)
                .collect(),
        )
    }

    /// Per-member, per-shard metrics snapshot.
    pub fn metrics(&self) -> FederationMetrics {
        FederationMetrics {
            members: self.clients.iter().map(EngineClient::metrics).collect(),
        }
    }

    /// Aggregate counters across every member's shards.
    pub fn metrics_total(&self) -> ShardMetrics {
        self.metrics().total()
    }

    /// Total streams resident across the federation.
    pub fn stream_count(&self) -> usize {
        self.clients.iter().map(EngineClient::stream_count).sum()
    }

    /// The federation-wide telemetry snapshot: every member engine's
    /// snapshot (flight events stamped with the member index) merged
    /// with the routing layer's own telemetry — the merged
    /// `route_observe_ns` histogram plus a per-member
    /// `route_observe_ns_m{i}` breakdown, and the federation flight
    /// ring (worker-gone sightings with job/member attribution, job
    /// migrations). Returns `None` unless every member engine was built
    /// with telemetry enabled.
    ///
    /// Flight stamps are each member's own engine time; the merged log
    /// interleaves those independent domains by stamp value.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        let tel = self.inner.telemetry.as_ref()?;
        let mut total = TelemetrySnapshot::new();
        for (m, c) in self.clients.iter().enumerate() {
            if let Some(mut snap) = c.telemetry() {
                snap.set_flight_member(m as u32);
                total.merge(&snap);
            }
        }
        for (m, h) in tel.route_ns.iter().enumerate() {
            let snap = h.snapshot();
            total.merge_histogram("route_observe_ns", snap.clone());
            total.merge_histogram(&format!("route_observe_ns_m{m}"), snap);
        }
        total.extend_flight(tel.flight.lock().unwrap().dump());
        total.sort_flight();
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamKind;

    fn jkey(job: u32, rank: u32) -> StreamKey {
        StreamKey::for_job(job, rank, StreamKind::Sender)
    }

    fn train(client: &FederatedClient, key: StreamKey, pattern: &[u64], cycles: usize) {
        let batch: Vec<Observation> = (0..cycles)
            .flat_map(|_| pattern.iter().map(move |&v| Observation::new(key, v)))
            .collect();
        client.observe_batch(&batch);
    }

    /// The pin table's on-disk bytes are a format: magic, version,
    /// count, `(job, member)` pairs ascending by job, FNV-1a checksum.
    /// Pinned byte for byte, then round-tripped through the loader,
    /// which must refuse a flipped bit.
    #[test]
    fn pin_table_bytes_are_pinned_and_round_trip() {
        let dir = std::env::temp_dir().join(format!("mpp-fed-pins-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let pins: HashMap<JobId, usize> = [(3, 1), (1, 0)].into_iter().collect();
        save_pins(&dir, &pins).unwrap();
        let bytes = fs::read(pins_path(&dir)).unwrap();
        let mut want = b"MPPPIN\0".to_vec();
        for word in [1u32, 2, 1, 0, 3, 1] {
            want.extend_from_slice(&word.to_le_bytes());
        }
        want.extend_from_slice(&0x10a6_5d4e_e858_3fe5u64.to_le_bytes());
        assert_eq!(bytes, want);
        assert_eq!(load_pins(&dir).unwrap(), pins);
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["pins.bin"], "no temp file left behind");
        let mut flipped = bytes;
        flipped[12] ^= 1;
        fs::write(pins_path(&dir), &flipped).unwrap();
        let err = load_pins(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Pin-table bytes for `entries` as written, in the given order,
    /// under a correct checksum: magic, version, `count`, the pairs.
    fn pin_bytes(count: u32, entries: &[(u32, u32)]) -> Vec<u8> {
        let mut bytes = PINS_MAGIC.to_vec();
        bytes.extend_from_slice(&PINS_VERSION.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        for &(job, member) in entries {
            bytes.extend_from_slice(&job.to_le_bytes());
            bytes.extend_from_slice(&member.to_le_bytes());
        }
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Loads `bytes` as the pin table of the directory `dir`.
    fn load_pin_bytes(dir: &Path, bytes: &[u8]) -> io::Result<HashMap<JobId, usize>> {
        fs::create_dir_all(dir).unwrap();
        fs::write(pins_path(dir), bytes).unwrap();
        load_pins(dir)
    }

    fn assert_invalid(got: io::Result<HashMap<JobId, usize>>, what: &str) {
        match got {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
            Ok(pins) => panic!("{what}: loaded {pins:?}"),
        }
    }

    /// `save_pins` writes strictly ascending jobs, so a checksum-valid
    /// table with a duplicate or descending job is refused rather than
    /// letting the last entry win.
    #[test]
    fn pin_table_refuses_duplicate_and_descending_jobs() {
        let dir = std::env::temp_dir().join(format!("mpp-fed-order-{}", std::process::id()));
        let ok = load_pin_bytes(&dir, &pin_bytes(2, &[(1, 0), (3, 1)])).unwrap();
        assert_eq!(ok, [(1, 0), (3, 1)].into_iter().collect());
        for entries in [[(3, 1), (1, 0)], [(2, 0), (2, 1)], [(2, 1), (2, 1)]] {
            let got = load_pin_bytes(&dir, &pin_bytes(2, &entries));
            assert_invalid(got, &format!("{entries:?}"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Arbitrary bytes, a bit flip at every offset, inflated counts
    /// under a recomputed checksum and splices of two valid tables all
    /// load as `InvalidData`.
    #[test]
    fn adversarial_pin_tables_are_invalid_data() {
        let dir = std::env::temp_dir().join(format!("mpp-fed-fuzz-{}", std::process::id()));
        let mut rng = crate::snapshot::fuzz::Rng::new(0x5eed_0201);
        for case in 0..200 {
            let len = rng.below(64);
            let mut bytes = rng.bytes(len);
            if case % 2 == 1 {
                bytes.splice(0..0, PINS_MAGIC.iter().copied());
            }
            assert_invalid(load_pin_bytes(&dir, &bytes), &format!("random case {case}"));
        }
        let a = pin_bytes(3, &[(1, 0), (4, 1), (9, 0)]);
        for at in 0..a.len() {
            for bit in 0..8 {
                let mut bad = a.clone();
                bad[at] ^= 1 << bit;
                assert_invalid(load_pin_bytes(&dir, &bad), &format!("byte {at} bit {bit}"));
            }
        }
        for count in [4, 1 << 20, u32::MAX] {
            let bad = pin_bytes(count, &[(1, 0), (4, 1), (9, 0)]);
            assert_invalid(load_pin_bytes(&dir, &bad), &format!("count {count}"));
        }
        let b = pin_bytes(1, &[(2, 1)]);
        for cut_a in 0..=a.len() {
            for cut_b in 0..=b.len() {
                let spliced = crate::snapshot::fuzz::splice(&a, cut_a, &b, cut_b);
                if spliced != a && spliced != b {
                    let what = format!("splice {cut_a}/{cut_b}");
                    assert_invalid(load_pin_bytes(&dir, &spliced), &what);
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checksum-valid pin table that routes a job past the member
    /// count makes recovery fail with `InvalidData` instead of building
    /// a federation with a dangling route.
    #[test]
    fn recover_refuses_a_pin_past_the_member_count() {
        let dir = std::env::temp_dir().join(format!("mpp-fed-pin-range-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = || {
            FederationConfig::new(2, 1).member_config(
                EngineConfig::with_shards(1).with_durability(oplog::DurabilityConfig::new(&dir)),
            )
        };
        drop(FederatedEngine::new(cfg()));
        save_pins(&dir, &[(5, 1), (6, 2)].into_iter().collect()).unwrap();
        match FederatedEngine::recover(cfg()) {
            Err(RecoverError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("job 6 to member 2"), "{e}");
            }
            Ok(_) => panic!("recovered a federation with a dangling route"),
            Err(e) => panic!("expected an InvalidData I/O error, got {e}"),
        }
        save_pins(&dir, &[(5, 1)].into_iter().collect()).unwrap();
        let (fed, report) = FederatedEngine::recover(cfg()).expect("in-range pins recover");
        assert_eq!((report.pins_restored, fed.member_of(5)), (1, 1));
        drop(fed);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_is_deterministic_and_pins_override_the_hash() {
        let fed = FederatedEngine::new(FederationConfig::new(4, 2));
        for job in 0..64u32 {
            assert_eq!(fed.member_of(job), member_hash(job, 4));
            assert!(fed.member_of(job) < 4);
        }
        let hashed = fed.member_of(7);
        let target = (hashed + 1) % 4;
        fed.pin_job(7, target);
        assert_eq!(fed.member_of(7), target);
        assert_eq!(fed.client().member_of(7), target, "clients see pins");
        fed.unpin_job(7);
        assert_eq!(fed.member_of(7), hashed);
        // Jobs spread over members rather than clustering.
        let mut seen = [false; 4];
        for job in 0..64u32 {
            seen[fed.member_of(job)] = true;
        }
        assert!(seen.iter().all(|&b| b), "64 jobs must reach all 4 members");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pinning_to_a_missing_member_panics() {
        FederatedEngine::new(FederationConfig::new(2, 1)).pin_job(0, 2);
    }

    #[test]
    fn jobs_land_on_their_member_and_namespaces_do_not_collide() {
        let fed = FederatedEngine::new(FederationConfig::new(3, 2));
        let client = fed.client();
        // Same rank, same kind, three jobs, three different patterns.
        train(&client, jkey(0, 5), &[1, 2], 10);
        train(&client, jkey(1, 5), &[8, 9, 7], 10);
        train(&client, jkey(2, 5), &[4], 10);
        assert_eq!(client.period_of(jkey(0, 5)), Some(2));
        assert_eq!(client.period_of(jkey(1, 5)), Some(3));
        assert_eq!(client.period_of(jkey(2, 5)), Some(1));
        assert_eq!(client.predict(jkey(1, 5), 1), Some(8));
        // Streams are resident only on their job's member.
        for job in 0..3u32 {
            let owner = fed.member_of(job);
            for m in 0..fed.member_count() {
                let resident = fed.member(m).client().resident_jobs().contains(&job);
                assert_eq!(resident, m == owner, "job {job} on member {m}");
            }
        }
        assert_eq!(client.resident_jobs(), vec![0, 1, 2]);
        assert_eq!(client.stream_count(), 3);
        assert_eq!(client.metrics_total().events_ingested, 20 + 30 + 10);
        assert_eq!(client.job_metrics_of(1).events_ingested, 30);
    }

    #[test]
    fn mixed_job_batches_split_and_sum_outcomes() {
        let fed = FederatedEngine::new(FederationConfig::new(2, 2));
        let client = fed.client();
        let batch: Vec<Observation> = (0..60)
            .map(|i| Observation::new(jkey(i % 3, 0), u64::from(i % 2)))
            .collect();
        let outcome = client.observe_batch(&batch);
        assert_eq!(outcome.enqueued, 60);
        assert!(outcome.complete());
        let jobs = client.job_metrics();
        assert_eq!(jobs.len(), 3);
        assert!(jobs.iter().all(|(_, m)| m.events_ingested == 20));
        // predict_batch routes mixed-job queries home again.
        let queries: Vec<Query> = (0..3).map(|j| Query::new(jkey(j, 0), 1)).collect();
        let mut out = Vec::new();
        client.predict_batch(&queries, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(Option::is_some), "trained period-2 streams");
    }

    #[test]
    fn evict_job_reaches_every_member_and_spares_others() {
        let fed = FederatedEngine::new(FederationConfig::new(2, 2));
        let client = fed.client();
        train(&client, jkey(0, 0), &[1, 2], 8);
        train(&client, jkey(1, 0), &[5, 6], 8);
        // Pin job 0 away and retrain: state now lives on two members.
        let old = fed.member_of(0);
        fed.pin_job(0, (old + 1) % 2);
        train(&client, jkey(0, 0), &[1, 2], 8);
        assert_eq!(client.evict_job(0), 2, "remnant + pinned state both go");
        assert_eq!(client.resident_jobs(), vec![1]);
        assert_eq!(client.predict(jkey(1, 0), 1), Some(5), "job 1 untouched");
    }

    #[test]
    fn single_member_federation_matches_direct_engine_use() {
        let cfg = EngineConfig::with_shards(3);
        let fed = FederatedEngine::single(cfg.clone());
        let fclient = fed.client();
        let direct = PersistentEngine::new(cfg);
        let dclient = direct.client();
        let batch: Vec<Observation> = (0..120)
            .map(|i| Observation::new(StreamKey::new(i % 5, StreamKind::Sender), u64::from(i % 3)))
            .collect();
        assert_eq!(fclient.observe_batch(&batch), dclient.observe_batch(&batch));
        for r in 0..5 {
            for h in 1..=4 {
                let key = StreamKey::new(r, StreamKind::Sender);
                assert_eq!(fclient.predict(key, h), dclient.predict(key, h));
            }
        }
        let (f, d) = (fclient.metrics_total(), dclient.metrics_total());
        assert_eq!(f.events_ingested, d.events_ingested);
        assert_eq!(f.hits, d.hits);
        assert_eq!(f.misses, d.misses);
        assert_eq!(f.abstentions, d.abstentions);
        assert_eq!(fed.clock(), direct.clock());
    }
}
