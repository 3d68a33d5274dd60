//! Serving the §2 policies from the `mpp-engine` prediction engine.
//!
//! The per-rank [`PredictionAdvisor`](crate::advisor::PredictionAdvisor)
//! owns two private predictors; fine for one process, wrong shape for a
//! machine serving every rank of every job. This module rewires the
//! runtime onto the shared **persistent-worker** engine:
//!
//! * [`EngineHandle`] — cloneable, `Send + Sync` handle to a
//!   [`FederatedEngine`]: one or more persistent engines partitioned
//!   by job. Handles built from a single [`PersistentEngine`] (the
//!   historical constructors) wrap a one-member federation and behave
//!   bit-identically to driving that engine directly. There is no
//!   mutex behind it: submission goes through per-shard channels,
//!   replies come back on private epoch-stamped lanes. Hot-path users
//!   take a [`FederatedClient`] via [`EngineHandle::client`];
//!   queries, metrics and job operations go through that client or
//!   through [`EngineHandle::federation`].
//! * [`EngineAdvisor`] — the advisor interface backed by engine
//!   forecasts: `observe` feeds sender/size/tag observations through
//!   its private client, `advise` returns the same [`Advice`] type the
//!   §2 policies already consume.
//! * [`EngineOracle`] / [`EngineOracleFactory`] — the §2.3 arrival
//!   oracle served by the engine. Observations are staged locally and
//!   flushed through `observe_batch` exactly at re-plan boundaries, so
//!   the engine sees each rank's stream in logical order while channel
//!   traffic stays one round-trip per `depth` deliveries. Because
//!   forecasts are only read at re-plan time, this batching produces
//!   *identical* grants to feeding the engine one event at a time —
//!   and identical behaviour to the local
//!   [`DpdOracle`](crate::oracle::DpdOracle) (`tests/engine_oracle.rs`
//!   pins both). The engine's worker threads outlive every simulated
//!   world that uses them and shut down when the last handle drops.
//!
//! **Job namespaces.** Every advisor/oracle carries a [`JobId`]
//! (default [`DEFAULT_JOB`]). The historical constructors bake in the
//! default job — that was the latent single-job assumption: two
//! default-job oracles for the same rank on one handle *do* share
//! streams. Multi-tenant callers must use the `for_job` constructors
//! ([`EngineOracle::for_job`], [`EngineAdvisor::for_job`],
//! [`EngineOracleFactory::for_job`]); oracles with different jobs on
//! one handle never share streams, because every key they stage or
//! query carries their job (pinned in `tests/engine_oracle.rs`).

use crate::advisor::Advice;
use crate::oracle::GrantBook;
use mpp_core::dpd::DpdConfig;
pub use mpp_engine::{BackpressurePolicy, JobId, DEFAULT_JOB};
use mpp_engine::{
    EngineConfig, FederatedClient, FederatedEngine, FederationConfig, Observation,
    PersistentEngine, RankId, StreamKey, StreamKind,
};
use mpp_mpisim::{ArrivalOracle, OracleFactory, Rank, Tag};

/// Feeds one delivered message (all three attribute streams) through
/// `client` into `job`'s namespace — the single place the runtime maps
/// a delivery onto engine stream keys.
fn observe_tagged_via(
    client: &FederatedClient,
    job: JobId,
    rank: RankId,
    src: u64,
    bytes: u64,
    tag: u64,
) {
    client.observe_batch(&[
        Observation::new(StreamKey::for_job(job, rank, StreamKind::Sender), src),
        Observation::new(StreamKey::for_job(job, rank, StreamKind::Size), bytes),
        Observation::new(StreamKey::for_job(job, rank, StreamKind::Tag), tag),
    ]);
}

/// Feeds a tagless delivery (sender and size streams only — no
/// fabricated tag symbol).
fn observe_pair_via(client: &FederatedClient, job: JobId, rank: RankId, src: u64, bytes: u64) {
    client.observe_batch(&[
        Observation::new(StreamKey::for_job(job, rank, StreamKind::Sender), src),
        Observation::new(StreamKey::for_job(job, rank, StreamKind::Size), bytes),
    ]);
}

/// Forecast of the next `depth` (sender, size) pairs for `rank` of
/// `job`, in the runtime's [`Advice`] shape.
fn advise_via(client: &FederatedClient, job: JobId, rank: RankId, depth: usize) -> Advice {
    let mut messages = Vec::with_capacity(depth);
    client.forecast_messages_for_job(job, rank, depth, &mut messages);
    Advice { messages }
}

/// Cloneable, lock-free handle to a shared persistent prediction
/// engine. Replaces the former `Arc<Mutex<Engine>>` design: cloning is
/// an `Arc` bump, and no user of the engine can block another behind a
/// lock — shard workers serialise their own streams via their command
/// queues instead.
#[derive(Clone, Debug)]
pub struct EngineHandle {
    fed: FederatedEngine,
}

impl EngineHandle {
    /// Wraps a running persistent engine as a single-member federation
    /// — bit-identical to driving the engine directly (every job routes
    /// to the lone member, and single-job batches are forwarded without
    /// copying).
    pub fn new(engine: PersistentEngine) -> Self {
        Self::federated(FederatedEngine::from_members(vec![engine]))
    }

    /// Wraps a running multi-engine federation.
    pub fn federated(fed: FederatedEngine) -> Self {
        EngineHandle { fed }
    }

    /// Spawns a federation from a full federation configuration,
    /// wrapped.
    pub fn from_federation_config(cfg: FederationConfig) -> Self {
        Self::federated(FederatedEngine::new(cfg))
    }

    /// Spawns an engine from a full configuration, wrapped.
    pub fn from_config(cfg: EngineConfig) -> Self {
        Self::new(PersistentEngine::new(cfg))
    }

    /// Spawns an engine with `shards` shards and a detector config,
    /// wrapped.
    pub fn with_config(shards: usize, dpd: DpdConfig) -> Self {
        Self::from_config(EngineConfig {
            shards,
            dpd,
            ..EngineConfig::default()
        })
    }

    /// Spawns an engine whose per-shard observe lanes are bounded to
    /// `queue_cap` commands under `policy` — the backpressure knob for
    /// serving deployments where a slow shard must not grow an
    /// unbounded queue. `BackpressurePolicy::Block` keeps behaviour
    /// bit-identical to the unbounded engine; `Shed` trades events for
    /// bounded submitter latency and counts every drop.
    pub fn with_backpressure(
        shards: usize,
        dpd: DpdConfig,
        queue_cap: usize,
        policy: BackpressurePolicy,
    ) -> Self {
        Self::from_config(
            EngineConfig {
                shards,
                dpd,
                ..EngineConfig::default()
            }
            .with_queue_cap(queue_cap)
            .with_backpressure(policy),
        )
    }

    /// The underlying federation handle.
    pub fn federation(&self) -> &FederatedEngine {
        &self.fed
    }

    /// The first federation member (the whole engine for handles built
    /// from a single `PersistentEngine`).
    pub fn engine(&self) -> &PersistentEngine {
        self.fed.member(0)
    }

    /// A private client lane into the federation — what hot-path users
    /// (one per thread) should hold.
    pub fn client(&self) -> FederatedClient {
        self.fed.client()
    }

    /// Forecast of the next `depth` (sender, size) pairs for `rank` of
    /// the default job, in the runtime's [`Advice`] shape.
    pub fn advise(&self, rank: RankId, depth: usize) -> Advice {
        advise_via(&self.client(), DEFAULT_JOB, rank, depth)
    }

    /// Forecast for `rank` inside `job`'s namespace.
    pub fn advise_for_job(&self, job: JobId, rank: RankId, depth: usize) -> Advice {
        advise_via(&self.client(), job, rank, depth)
    }
}

/// Engine-backed replacement for `PredictionAdvisor`: same `observe` /
/// `advise` contract, predictions served by the shared engine through
/// a private client lane.
pub struct EngineAdvisor {
    client: FederatedClient,
    job: JobId,
    rank: RankId,
    depth: usize,
}

impl EngineAdvisor {
    /// Creates an advisor for `rank` of the default job, forecasting
    /// `depth` ahead.
    pub fn new(handle: EngineHandle, rank: RankId, depth: usize) -> Self {
        Self::for_job(handle, DEFAULT_JOB, rank, depth)
    }

    /// Creates an advisor for `rank` inside `job`'s namespace.
    pub fn for_job(handle: EngineHandle, job: JobId, rank: RankId, depth: usize) -> Self {
        assert!(depth > 0, "advice depth must be positive");
        EngineAdvisor {
            client: handle.client(),
            job,
            rank,
            depth,
        }
    }

    /// Records one delivered message with unknown tag; only the sender
    /// and size streams are fed (fabricating a constant tag would
    /// inflate the engine's stream count and hit-rate metrics).
    pub fn observe(&mut self, sender: u64, size: u64) {
        observe_pair_via(&self.client, self.job, self.rank, sender, size);
    }

    /// Records one delivered message including its tag.
    pub fn observe_tagged(&mut self, sender: u64, size: u64, tag: u64) {
        observe_tagged_via(&self.client, self.job, self.rank, sender, size, tag);
    }

    /// Forecast for the next `depth` messages.
    pub fn advise(&self) -> Advice {
        advise_via(&self.client, self.job, self.rank, self.depth)
    }

    /// The configured advice depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// §2.3 arrival oracle served by the shared engine.
pub struct EngineOracle {
    client: FederatedClient,
    job: JobId,
    rank: RankId,
    depth: usize,
    until_replan: usize,
    /// Observations staged since the last flush (3 per delivery).
    staged: Vec<Observation>,
    /// Forecast scratch, reused every re-plan.
    forecast: Vec<(Option<u64>, Option<u64>)>,
    grants: GrantBook,
    /// Training observations the engine shed (only possible behind a
    /// bounded `Shed`-policy engine) — the oracle then forecasts from
    /// an engine that never saw them, so the loss must be visible.
    shed: u64,
}

impl EngineOracle {
    /// Creates the oracle for `rank` of the default job with forecast
    /// depth `depth`.
    pub fn new(handle: EngineHandle, rank: RankId, depth: usize) -> Self {
        Self::for_job(handle, DEFAULT_JOB, rank, depth)
    }

    /// Creates the oracle for `rank` inside `job`'s namespace. Two
    /// oracles with different jobs on one handle never share streams:
    /// every staged key carries the job, so their observations train —
    /// and their forecasts read — disjoint predictors
    /// (`tests/engine_oracle.rs` pins this).
    pub fn for_job(handle: EngineHandle, job: JobId, rank: RankId, depth: usize) -> Self {
        assert!(depth > 0, "forecast depth must be positive");
        EngineOracle {
            client: handle.client(),
            job,
            rank,
            depth,
            until_replan: 0,
            staged: Vec::with_capacity(3 * depth),
            forecast: Vec::with_capacity(depth),
            grants: GrantBook::new(),
            shed: 0,
        }
    }

    /// Staged observations dropped by the engine's `Shed` backpressure
    /// policy so far. Always 0 under `Block` or unbounded lanes; under
    /// `Shed` a non-zero count explains degraded forecast quality.
    pub fn shed_observations(&self) -> u64 {
        self.shed
    }

    fn flush_and_replan(&mut self) {
        // FIFO per shard: the forecast request queues behind the staged
        // observations of this rank, so it sees them applied.
        self.shed += self.client.observe_batch(&self.staged).shed;
        self.client
            .forecast_messages_for_job(self.job, self.rank, self.depth, &mut self.forecast);
        self.staged.clear();
        self.grants.refill_pairs(&self.forecast);
        self.until_replan = self.depth;
    }
}

impl Drop for EngineOracle {
    /// Flushes deliveries staged since the last re-plan, so the engine's
    /// ingest counters match the trace even when a program ends
    /// mid-window. Best-effort: if the engine's workers are already
    /// gone (or this rank is unwinding from a panic), the flush is
    /// dropped rather than escalating.
    fn drop(&mut self) {
        if self.staged.is_empty() || std::thread::panicking() {
            return;
        }
        let _ = self.client.try_observe_batch(&self.staged);
        self.staged.clear();
    }
}

impl ArrivalOracle for EngineOracle {
    fn observe(&mut self, src: Rank, bytes: u64, tag: Tag) {
        self.staged.push(Observation::new(
            StreamKey::for_job(self.job, self.rank, StreamKind::Sender),
            src as u64,
        ));
        self.staged.push(Observation::new(
            StreamKey::for_job(self.job, self.rank, StreamKind::Size),
            bytes,
        ));
        self.staged.push(Observation::new(
            StreamKey::for_job(self.job, self.rank, StreamKind::Tag),
            u64::from(tag),
        ));
        if self.until_replan == 0 {
            self.flush_and_replan();
        }
        self.until_replan -= 1;
    }

    fn expects(&mut self, src: Rank, bytes: u64) -> bool {
        self.grants.consume(src as u64, bytes)
    }
}

/// Factory wiring every rank of a [`World`](mpp_mpisim::World) to one
/// shared engine: `World::with_oracle(EngineOracleFactory::new(..))`.
/// Each built oracle gets its own client lane, so rank threads never
/// contend on a lock.
#[derive(Clone)]
pub struct EngineOracleFactory {
    handle: EngineHandle,
    job: JobId,
    depth: usize,
}

impl EngineOracleFactory {
    /// Creates a factory serving default-job oracles from `handle`.
    pub fn new(handle: EngineHandle, depth: usize) -> Self {
        Self::for_job(handle, DEFAULT_JOB, depth)
    }

    /// Creates a factory whose oracles live inside `job`'s namespace —
    /// what lets many simulated worlds share one federation without
    /// stream collisions (one job per world).
    pub fn for_job(handle: EngineHandle, job: JobId, depth: usize) -> Self {
        assert!(depth > 0, "forecast depth must be positive");
        EngineOracleFactory { handle, job, depth }
    }

    /// The shared engine handle (for post-run metrics inspection).
    pub fn handle(&self) -> &EngineHandle {
        &self.handle
    }
}

impl OracleFactory for EngineOracleFactory {
    fn build(&self, rank: Rank) -> Box<dyn ArrivalOracle> {
        Box::new(EngineOracle::for_job(
            self.handle.clone(),
            self.job,
            u32::try_from(rank).expect("rank fits u32"),
            self.depth,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advisor_matches_local_advisor_on_periodic_streams() {
        use crate::advisor::PredictionAdvisor;
        let handle = EngineHandle::with_config(4, DpdConfig::default());
        let mut local = PredictionAdvisor::new(DpdConfig::default(), 4);
        let mut served = EngineAdvisor::new(handle, 7, 4);
        for _ in 0..20 {
            for (s, b) in [(1u64, 100u64), (2, 200), (1, 100), (3, 800)] {
                local.observe(s, b);
                served.observe(s, b);
            }
        }
        assert_eq!(local.advise().messages, served.advise().messages);
    }

    #[test]
    fn tagless_advisor_does_not_fabricate_a_tag_stream() {
        let handle = EngineHandle::with_config(1, DpdConfig::default());
        let mut served = EngineAdvisor::new(handle.clone(), 0, 2);
        for i in 0..10u64 {
            served.observe(i % 2, 64);
        }
        assert_eq!(
            handle.client().stream_count(),
            2,
            "sender and size only — no constant tag stream"
        );
        assert_eq!(handle.client().metrics().total().events_ingested, 20);
    }

    #[test]
    fn oracle_grants_after_periodic_training() {
        let handle = EngineHandle::with_config(2, DpdConfig::default());
        let mut o = EngineOracle::new(handle, 0, 4);
        for _ in 0..30 {
            for (s, b) in [(1usize, 100_000u64), (2, 8), (1, 100_000), (3, 8)] {
                o.observe(s, b, 5);
            }
        }
        assert!(o.expects(1, 100_000));
        assert!(o.expects(1, 50_000), "second grant, smaller message");
        assert!(!o.expects(1, 100_000), "two grants per plan");
    }

    #[test]
    fn ranks_share_one_engine_but_not_streams() {
        let handle = EngineHandle::with_config(4, DpdConfig::default());
        let f = EngineOracleFactory::new(handle.clone(), 3);
        let mut a = f.build(0);
        let mut b = f.build(1);
        for _ in 0..30 {
            a.observe(5, 70_000, 1);
            b.observe(9, 10, 2);
        }
        assert!(a.expects(5, 70_000));
        assert!(!b.expects(5, 70_000), "rank 1 never saw sender 5");
        // Both ranks' streams are resident in the one engine.
        drop((a, b)); // flush the staged tails
        assert_eq!(
            handle.client().stream_count(),
            6,
            "2 ranks x 3 attribute streams"
        );
    }

    #[test]
    fn engine_serves_tag_streams_too() {
        let handle = EngineHandle::with_config(1, DpdConfig::default());
        let f = EngineOracleFactory::new(handle.clone(), 2);
        let mut o = f.build(3);
        for i in 0..40u32 {
            o.observe(1, 8, i % 4);
        }
        drop(o);
        let key = StreamKey::new(3, StreamKind::Tag);
        assert_eq!(handle.client().period_of(key), Some(4));
    }

    #[test]
    fn backpressure_knob_reaches_the_engine_and_preserves_oracle_behaviour() {
        let bounded =
            EngineHandle::with_backpressure(2, DpdConfig::default(), 4, BackpressurePolicy::Block);
        let cfg = bounded.engine().config();
        assert_eq!(cfg.observe_queue_cap, Some(4));
        assert_eq!(cfg.backpressure, BackpressurePolicy::Block);
        // Block-mode bounded lanes serve the oracle identically to the
        // unbounded engine (bit-identical by the engine's proptests;
        // spot-checked here through the full oracle stack).
        let unbounded = EngineHandle::with_config(2, DpdConfig::default());
        let mut ob = EngineOracle::new(bounded.clone(), 0, 4);
        let mut ou = EngineOracle::new(unbounded, 0, 4);
        for _ in 0..30 {
            for (s, b) in [(1usize, 100_000u64), (2, 8), (1, 100_000), (3, 8)] {
                ob.observe(s, b, 5);
                ou.observe(s, b, 5);
            }
        }
        for (s, b) in [(1usize, 100_000u64), (1, 50_000), (1, 100_000), (2, 8)] {
            assert_eq!(ob.expects(s, b), ou.expects(s, b), "grants diverged");
        }
        drop((ob, ou));
        let total = bounded.client().metrics_total();
        assert_eq!(total.shed_events, 0, "Block mode never sheds");
        assert!(total.queue_high_water <= 4, "lane within its cap");
    }

    #[test]
    fn oracles_with_different_jobs_on_one_handle_never_share_streams() {
        // The latent single-job assumption, fixed: same rank, same
        // handle, two jobs — the namespaces must be fully disjoint.
        let handle = EngineHandle::with_config(4, DpdConfig::default());
        let mut a = EngineOracle::for_job(handle.clone(), 1, 0, 4);
        let mut b = EngineOracle::for_job(handle.clone(), 2, 0, 4);
        for _ in 0..30 {
            for (s, by) in [(1usize, 100_000u64), (2, 8), (1, 100_000), (3, 8)] {
                a.observe(s, by, 5);
            }
            b.observe(9, 16, 7); // constant, trivially predictable
        }
        // Job 1's well-trained pattern grants; job 2 never saw it.
        assert!(a.expects(1, 100_000));
        assert!(!b.expects(1, 100_000), "job 2 must not see job 1's model");
        assert!(b.expects(9, 16));
        drop((a, b));
        // Per-job rollups are disjoint and keys are namespaced.
        let jobs = handle.client().job_metrics();
        assert_eq!(jobs.iter().map(|&(j, _)| j).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(
            jobs[0].1.events_ingested, 360,
            "30x4 deliveries x 3 streams"
        );
        assert_eq!(jobs[1].1.events_ingested, 90);
        assert_eq!(
            handle
                .client()
                .period_of(StreamKey::for_job(1, 0, StreamKind::Sender)),
            Some(4)
        );
        assert_eq!(
            handle
                .client()
                .period_of(StreamKey::for_job(2, 0, StreamKind::Sender)),
            Some(1)
        );
        assert_eq!(
            handle
                .client()
                .period_of(StreamKey::new(0, StreamKind::Sender)),
            None,
            "the default job never saw traffic"
        );
        // Evicting job 1 leaves job 2 serving.
        assert_eq!(handle.client().evict_job(1), 3);
        assert_eq!(handle.client().resident_jobs(), vec![2]);
        assert_eq!(
            handle
                .client()
                .period_of(StreamKey::for_job(2, 0, StreamKind::Sender)),
            Some(1)
        );
    }

    #[test]
    fn job_scoped_factories_share_a_federation_without_collisions() {
        use mpp_engine::FederationConfig;
        let handle = EngineHandle::from_federation_config(FederationConfig::new(2, 2));
        // Two "worlds" (jobs), same ranks, different traffic.
        let fa = EngineOracleFactory::for_job(handle.clone(), 10, 3);
        let fb = EngineOracleFactory::for_job(handle.clone(), 11, 3);
        let mut a = fa.build(0);
        let mut b = fb.build(0);
        for _ in 0..30 {
            a.observe(5, 70_000, 1);
            b.observe(6, 10, 2);
        }
        assert!(a.expects(5, 70_000));
        assert!(!b.expects(5, 70_000), "job 11 never saw sender 5");
        drop((a, b));
        assert_eq!(handle.client().resident_jobs(), vec![10, 11]);
        assert_eq!(handle.federation().member_count(), 2);
        // Advisors namespace the same way.
        let advice = handle.advise_for_job(11, 0, 1);
        assert_eq!(advice.messages, vec![(Some(6), Some(10))]);
        assert_eq!(handle.advise_for_job(12, 0, 1).messages, vec![(None, None)]);
        // Querying a job that never ingested must not materialise a
        // phantom rollup (wrong/stale job ids would otherwise grow the
        // metrics maps without bound).
        assert_eq!(
            handle
                .client()
                .job_metrics()
                .iter()
                .map(|&(j, _)| j)
                .collect::<Vec<_>>(),
            vec![10, 11],
            "queried-only job 12 must not appear in the rollups"
        );
    }

    #[test]
    fn factory_is_sync_and_oracle_drop_flushes_ingest_counters() {
        fn assert_sync<T: Sync + Send>(_: &T) {}
        let handle = EngineHandle::with_config(2, DpdConfig::default());
        let f = EngineOracleFactory::new(handle.clone(), 4);
        assert_sync(&f);
        assert_sync(&handle);
        let mut o = f.build(0);
        for i in 0..10 {
            o.observe(1, 64, i); // 10 deliveries: staged tail not yet flushed
        }
        drop(o);
        assert_eq!(
            handle.client().metrics().total().events_ingested,
            30,
            "drop must flush the staged tail"
        );
    }

    #[test]
    fn handle_exposes_telemetry_when_enabled_and_none_otherwise() {
        use mpp_engine::TelemetryConfig;
        let plain = EngineHandle::with_config(2, DpdConfig::default());
        assert!(plain.client().telemetry().is_none(), "telemetry is opt-in");

        let handle = EngineHandle::from_config(
            EngineConfig {
                shards: 2,
                ..EngineConfig::default()
            }
            .with_telemetry(TelemetryConfig::enabled()),
        );
        let mut o = EngineOracle::new(handle.clone(), 0, 4);
        for _ in 0..30 {
            for (s, b) in [(1usize, 100_000u64), (2, 8), (1, 100_000), (3, 8)] {
                o.observe(s, b, 5);
            }
        }
        assert!(o.expects(1, 100_000));
        drop(o);
        let snap = handle.client().telemetry().expect("enabled end to end");
        assert_eq!(
            snap.counter("events_ingested"),
            Some(handle.client().metrics().total().events_ingested),
            "telemetry counters mirror the metrics rollup"
        );
        let h = snap.histogram("observe_batch_ns").expect("batch latency");
        assert!(h.count() > 0, "ingest batches were timed");
        assert!(h.quantile(0.99) <= h.max().max(1));
    }
}
