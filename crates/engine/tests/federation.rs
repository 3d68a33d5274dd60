//! The federation's load-bearing properties.
//!
//! * **Cross-engine equivalence.** A K-job interleaved workload served
//!   through a [`FederatedEngine`] is bit-identical to K *independent*
//!   sequential references (one raw-symbol `DpdPredictor` per stream,
//!   one bank per job) — for any member count, shard count, batch
//!   split, queue capacity and pinning. Federation, like sharding, is
//!   a throughput device, never a semantics device. The per-job metric
//!   rollups equal a single one-shard engine fed the same sequence.
//! * **Job isolation.** Flooding and then evicting job A changes
//!   *nothing* observable about job B: predictions, periods,
//!   confidence and B's `JobMetrics` rollup are all unchanged. Time
//!   is per-job too — a co-tenant's traffic never advances the clock
//!   that expires another job's idle streams (see
//!   `ttl_is_isolated_per_job_on_one_member` in
//!   `tests/persistence.rs` and the `federation` module docs).
//! * **Live migration is invisible.** Migrating a job between members
//!   mid-workload — snapshot, restore, extract, repin — leaves its
//!   predictions and scoring rollup bit-identical to a run that never
//!   migrated, moves its residency wholesale, and leaves every other
//!   job untouched. The same holds for a schedule of many moves: jobs
//!   moved repeatedly, onto their own member, and back home again.
//! * **Chaos: dead member workers fail loudly with attribution.** A
//!   killed shard worker inside one member surfaces
//!   [`FederationWorkerGone`] naming the job, member and shard, while
//!   jobs on other members — and legs dispatched to healthy members in
//!   the same batch — keep serving.

use mpp_core::dpd::{DpdConfig, DpdPredictor};
use mpp_core::predictors::Predictor;
use mpp_engine::{
    EngineConfig, FederatedEngine, FederationConfig, FederationWorkerGone, JobId, Observation,
    ObserveOutcome, PersistentEngine, Query, StreamKey, StreamKind, WorkerGone,
};
use proptest::prelude::*;
use std::collections::HashMap;

const RANKS: u32 = 6;
const HORIZONS: u32 = 4;

fn jkey(job: u32, rank: u32, kind: StreamKind) -> StreamKey {
    StreamKey::for_job(job, rank, kind)
}

/// Per-job variation of a base event so the K references genuinely
/// differ: each job sees its own rank/value transformation of the
/// generated sequence.
fn job_variant(job: u32, rank: u32, kind: u8, value: u64) -> Observation {
    let kind = StreamKind::ALL[((u32::from(kind) + job) % 3) as usize];
    let rank = (rank + job) % RANKS;
    Observation::new(jkey(job, rank, kind), (value + u64::from(job)) % 6)
}

/// One raw-symbol predictor per stream, fed sequentially — the
/// independent reference for one job's namespace.
fn reference_bank(events: &[Observation], cfg: &DpdConfig) -> HashMap<StreamKey, DpdPredictor> {
    let mut bank: HashMap<StreamKey, DpdPredictor> = HashMap::new();
    for obs in events {
        bank.entry(obs.key)
            .or_insert_with(|| DpdPredictor::new(cfg.clone()))
            .observe(obs.value);
    }
    bank
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: for any member count, shard count,
    /// batch split, queue capacity and pin, a K-job interleaved
    /// workload through the federation is bit-identical to K
    /// independent sequential references, and the per-job rollups
    /// equal a single one-shard engine fed the same interleaved sequence.
    #[test]
    fn k_job_federated_replay_is_bit_identical_to_k_references(
        raw in prop::collection::vec((0u32..RANKS, 0u8..3, 0u64..6), 0..240),
        jobs in 1u32..4,
        members in 1usize..4,
        shards in 1usize..4,
        batch_size in 1usize..48,
        cap_sel in 0usize..4,
        pin_sel in 0u32..8,
    ) {
        let dpd = DpdConfig { window: 48, max_lag: 16, ..DpdConfig::default() };
        let member_cfg = EngineConfig {
            shards,
            dpd: dpd.clone(),
            ttl: None,
            ..EngineConfig::default()
        };
        // cap_sel 0 = unbounded lanes; otherwise a tiny Block-mode cap.
        let member_cfg = match cap_sel {
            0 => member_cfg,
            c => member_cfg.with_queue_cap(c),
        };
        let fed = FederatedEngine::new(FederationConfig {
            members,
            member: member_cfg.clone(),
        });
        // Exercise the explicit pinning API: one job is pinned to an
        // arbitrary member before any traffic flows.
        fed.pin_job(pin_sel % jobs, (pin_sel as usize) % members);
        let client = fed.client();

        // K interleaved job variants of the generated sequence.
        let events: Vec<Observation> = raw
            .iter()
            .flat_map(|&(r, k, v)| (0..jobs).map(move |j| job_variant(j, r, k, v)))
            .collect();
        for chunk in events.chunks(batch_size) {
            let outcome = client.observe_batch(chunk);
            prop_assert_eq!(outcome.shed, 0, "Block lanes never shed");
            prop_assert_eq!(outcome.enqueued, chunk.len() as u64);
        }

        // One independent reference bank per job, fed only its events.
        let solo = PersistentEngine::new(EngineConfig { shards: 1, ..member_cfg }).client();
        solo.observe_batch(&events);
        for job in 0..jobs {
            let own: Vec<Observation> =
                events.iter().copied().filter(|o| o.key.job == job).collect();
            let bank = reference_bank(&own, &dpd);
            let mut queries = Vec::new();
            let mut expected = Vec::new();
            for rank in 0..RANKS {
                for kind in StreamKind::ALL {
                    let key = jkey(job, rank, kind);
                    let reference = bank.get(&key);
                    prop_assert_eq!(
                        client.period_of(key),
                        reference.and_then(|p| p.period()),
                        "period diverged on {:?}", key
                    );
                    for h in 1..=HORIZONS {
                        queries.push(Query::new(key, h));
                        expected.push(reference.and_then(|p| p.predict(h as usize)));
                    }
                }
            }
            let mut got = Vec::new();
            client.predict_batch(&queries, &mut got);
            prop_assert_eq!(&got, &expected, "job {} diverged from its reference", job);
            // Scoring rollups: federated == single one-shard engine.
            let fed_roll = client
                .job_metrics()
                .into_iter()
                .find(|&(j, _)| j == job)
                .map(|(_, m)| m);
            let solo_roll = solo
                .job_metrics()
                .into_iter()
                .find(|&(j, _)| j == job)
                .map(|(_, m)| m);
            prop_assert_eq!(
                fed_roll.map(|m| (m.events_ingested, m.hits, m.misses, m.abstentions,
                                  m.period_churn, m.resident_streams)),
                solo_roll.map(|m| (m.events_ingested, m.hits, m.misses, m.abstentions,
                                   m.period_churn, m.resident_streams)),
                "job {} rollup diverged from the one-shard reference", job
            );
            prop_assert_eq!(
                fed_roll.map_or(0, |m| m.resident_streams) as usize,
                bank.len(),
                "job {} resident streams", job
            );
        }
        // Nothing was lost or double-counted across members.
        prop_assert_eq!(
            client.metrics_total().events_ingested,
            events.len() as u64
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Live migration is invisible: for any workload, cut point,
    /// member/shard count, TTL and target member, a federation that
    /// migrates one job mid-workload serves predictions and per-job
    /// rollups bit-identical to one that never migrates — and the
    /// migrated job's residency moves wholesale.
    #[test]
    fn live_migration_is_bit_identical_to_never_migrating(
        raw in prop::collection::vec((0u32..RANKS, 0u8..3, 0u64..6), 1..160),
        jobs in 1u32..4,
        members in 2usize..4,
        shards in 1usize..3,
        cut_sel in 0usize..480,
        mig_sel in 0u32..8,
        target_sel in 0usize..4,
        ttl_sel in 0u64..40,
    ) {
        let ttl = if ttl_sel < 15 { None } else { Some(ttl_sel) };
        let dpd = DpdConfig { window: 48, max_lag: 16, ..DpdConfig::default() };
        let member_cfg = EngineConfig {
            shards,
            dpd,
            ttl,
            ..EngineConfig::default()
        };
        let fed_of = || FederatedEngine::new(FederationConfig {
            members,
            member: member_cfg.clone(),
        });
        let control = fed_of();
        let trial = fed_of();
        let ctl = control.client();
        let tri = trial.client();

        let events: Vec<Observation> = raw
            .iter()
            .flat_map(|&(r, k, v)| (0..jobs).map(move |j| job_variant(j, r, k, v)))
            .collect();
        let cut = cut_sel % (events.len() + 1);
        let job = mig_sel % jobs;

        for chunk in events[..cut].chunks(7) {
            ctl.observe_batch(chunk);
            tri.observe_batch(chunk);
        }

        // Quiesce the submitting client (a query drains its lanes,
        // FIFO), then migrate the chosen job on the trial federation.
        tri.metrics_total();
        let from = trial.member_of(job);
        let to = (from + 1 + target_sel) % members; // sometimes == from: a no-op migration
        let moved = trial.migrate_job(job, from, to)
            .expect("identically configured members must accept the snapshot");
        if from != to {
            prop_assert_eq!(trial.member_of(job), to, "route repinned");
            prop_assert!(
                !trial.member(from).client().resident_jobs().contains(&job),
                "no remnant on the source"
            );
            prop_assert_eq!(
                trial.member(to).client().resident_jobs().contains(&job),
                moved > 0,
                "moved streams are resident on the target"
            );
        } else {
            prop_assert_eq!(moved, 0, "self-migration is a no-op");
        }

        for chunk in events[cut..].chunks(7) {
            ctl.observe_batch(chunk);
            tri.observe_batch(chunk);
        }

        // Every job, every stream, every horizon: bit-identical.
        let mut queries = Vec::new();
        for j in 0..jobs {
            for rank in 0..RANKS {
                for kind in StreamKind::ALL {
                    for h in 1..=HORIZONS {
                        queries.push(Query::new(jkey(j, rank, kind), h));
                    }
                }
            }
        }
        let (mut want, mut got) = (Vec::new(), Vec::new());
        ctl.predict_batch(&queries, &mut want);
        tri.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "migration changed a prediction");

        // Rollups match too. `predictions_served` is counted only on
        // shards that ingested the job, and migration plants the
        // job's history on the target's shard 0 — a layout detail —
        // so it is normalized out.
        let normalize = |mut rolls: Vec<(JobId, mpp_engine::JobMetrics)>| {
            for (_, m) in &mut rolls { m.predictions_served = 0; }
            rolls
        };
        prop_assert_eq!(
            normalize(ctl.job_metrics()),
            normalize(tri.job_metrics()),
            "migration changed a job rollup"
        );
        prop_assert_eq!(
            ctl.metrics_total().events_ingested,
            tri.metrics_total().events_ingested
        );
    }
}

/// Members with different configurations refuse a migration with a
/// typed error — before either member's state is touched.
#[test]
fn migrating_between_incompatible_members_fails_cleanly() {
    let base = EngineConfig::with_shards(2);
    let with_ttl = EngineConfig {
        ttl: Some(64),
        ..EngineConfig::with_shards(2)
    };
    let fed = FederatedEngine::from_members(vec![
        mpp_engine::PersistentEngine::new(base),
        mpp_engine::PersistentEngine::new(with_ttl),
    ]);
    let client = fed.client();
    let job = (0..32u32)
        .find(|&j| fed.member_of(j) == 0)
        .expect("a job routed to member 0");
    let key = jkey(job, 0, StreamKind::Sender);
    for i in 0..20u64 {
        client.observe(key, i % 2);
    }
    let before = client.predict(key, 1);
    assert!(before.is_some());

    match fed.migrate_job(job, 0, 1) {
        Err(mpp_engine::MigrateError::Snapshot(mpp_engine::SnapshotError::ConfigMismatch(msg))) => {
            assert!(msg.contains("TTL"), "mismatch names the field: {msg}")
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // Nothing moved: still served by member 0, predictions intact.
    assert_eq!(fed.member_of(job), 0);
    assert!(fed.member(0).client().resident_jobs().contains(&job));
    assert!(!fed.member(1).client().resident_jobs().contains(&job));
    assert_eq!(client.predict(key, 1), before);
}

/// The stale-route regression pin: a caller acting on a route it read
/// earlier (the route moved under it — concurrent pin, earlier
/// migration) must get a *recoverable* typed error, never a library
/// panic, and the failed call must leave both members exactly as they
/// were.
#[test]
fn migrating_from_a_stale_route_returns_not_serving_with_members_untouched() {
    let fed = FederatedEngine::new(FederationConfig::new(2, 2));
    let client = fed.client();
    let job = (0..32u32)
        .find(|&j| fed.member_of(j) == 0)
        .expect("a job routed to member 0");
    let key = jkey(job, 0, StreamKind::Sender);
    for i in 0..20u64 {
        client.observe(key, i % 2);
    }
    let before = client.predict(key, 1);
    assert!(before.is_some());
    let counts_before = (
        fed.member(0).client().metrics_total().events_ingested,
        fed.member(1).client().metrics_total().events_ingested,
    );

    // The caller believes member 1 serves the job; member 0 does.
    assert_eq!(
        fed.migrate_job(job, 1, 0),
        Err(mpp_engine::MigrateError::NotServing {
            job,
            serving: 0,
            from: 1,
        })
    );
    // Both members untouched: residency, route, predictions, counters.
    assert_eq!(fed.member_of(job), 0);
    assert!(fed.member(0).client().resident_jobs().contains(&job));
    assert!(!fed.member(1).client().resident_jobs().contains(&job));
    assert_eq!(client.predict(key, 1), before);
    assert_eq!(
        (
            fed.member(0).client().metrics_total().events_ingested,
            fed.member(1).client().metrics_total().events_ingested,
        ),
        counts_before
    );

    // Out-of-range member indices are typed errors too.
    assert_eq!(
        fed.migrate_job(job, 0, 9),
        Err(mpp_engine::MigrateError::MemberOutOfRange {
            member: 9,
            members: 2,
        })
    );
    assert_eq!(
        fed.migrate_job(job, 9, 0),
        Err(mpp_engine::MigrateError::MemberOutOfRange {
            member: 9,
            members: 2,
        })
    );
    assert!(
        fed.try_pin_job(job, 9).is_err(),
        "pin validates the member index the same way"
    );
    assert_eq!(fed.member_of(job), 0, "failed pin left the route alone");
}

/// The quiesce contract: events whose submission completed before a
/// migration are never lost at the cut, even while other threads keep
/// hammering *other* jobs on both members throughout. `migrate_job`
/// drains the source member first, so the snapshot includes every
/// fully-submitted batch — from any client, not just the migrating
/// thread's.
#[test]
fn flushed_events_survive_migration_under_concurrent_other_job_ingest() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let fed = FederatedEngine::new(FederationConfig::new(2, 2));
    let job = (0..32u32)
        .find(|&j| fed.member_of(j) == 0)
        .expect("a job routed to member 0");
    let noisy: Vec<u32> = (0..64u32).filter(|&j| j != job).take(4).collect();

    let stop = Arc::new(AtomicBool::new(false));
    // The noise thread reports its first ingested batch, and `stop` is
    // set only after that report, so other jobs' traffic has flowed
    // however the threads are scheduled.
    let (flowing_tx, flowing) = std::sync::mpsc::channel();
    let noise = {
        let fed = fed.clone();
        let stop = Arc::clone(&stop);
        let noisy = noisy.clone();
        std::thread::spawn(move || {
            let client = fed.client();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<Observation> = noisy
                    .iter()
                    .map(|&j| Observation::new(jkey(j, (i % 4) as u32, StreamKind::Sender), i % 5))
                    .collect();
                client.observe_batch(&batch);
                if i == 0 {
                    flowing_tx.send(()).expect("the main thread waits for this");
                }
                i += 1;
            }
        })
    };

    // Submit the migrating job's events from a *different* client than
    // the one the migration drains implicitly — the lost-update shape
    // the old API documented away.
    let submitter = fed.client();
    const EVENTS: u64 = 500;
    for i in 0..EVENTS {
        submitter.observe_batch(&[Observation::new(
            jkey(job, (i % 3) as u32, StreamKind::Sender),
            i % 4,
        )]);
    }
    // The submissions above returned; no explicit flush of `submitter`.
    // quiesce_job + migrate_job must still capture all of them.
    fed.quiesce_job(job);
    let from = fed.member_of(job);
    let to = (from + 1) % 2;
    fed.migrate_job(job, from, to)
        .expect("identically configured members accept the move");
    flowing
        .recv()
        .expect("the noise thread ingests a batch before it stops");
    stop.store(true, Ordering::Relaxed);
    noise.join().expect("noise thread");

    assert_eq!(fed.member_of(job), to);
    let client = fed.client();
    assert_eq!(
        client.job_metrics_of(job).events_ingested,
        EVENTS,
        "every submitted-and-returned event survived the cut"
    );
    for j in noisy {
        assert!(
            client.job_metrics_of(j).events_ingested > 0,
            "concurrent ingest to other jobs kept flowing"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Repeated migration is invisible: a schedule of moves between
    /// chunks — random jobs to random members, self-moves included,
    /// and one job always sent away and back to the member it started
    /// on — leaves every prediction and per-job rollup bit-identical to
    /// a federation that never migrates, with or without a TTL.
    #[test]
    fn migration_schedules_are_bit_identical_to_never_migrating(
        raw in prop::collection::vec((0u32..RANKS, 0u8..3, 0u64..6), 1..160),
        jobs in 1u32..4,
        members in 2usize..4,
        shards in 1usize..3,
        schedule in prop::collection::vec((0u32..8, 0usize..3), 0..8),
        ttl_sel in 0u64..40,
    ) {
        let ttl = if ttl_sel < 15 { None } else { Some(ttl_sel) };
        let dpd = DpdConfig { window: 48, max_lag: 16, ..DpdConfig::default() };
        let member_cfg = EngineConfig {
            shards,
            dpd,
            ttl,
            ..EngineConfig::default()
        };
        let fed_of = || FederatedEngine::new(FederationConfig {
            members,
            member: member_cfg.clone(),
        });
        let control = fed_of();
        let trial = fed_of();
        let ctl = control.client();
        let tri = trial.client();

        // The random moves, then job 0 away from its first member and
        // back: every schedule moves one job at least twice and returns
        // it home.
        let home = trial.member_of(0);
        let mut moves: Vec<(JobId, usize)> = schedule
            .iter()
            .map(|&(j, m)| (j % jobs, m % members))
            .collect();
        moves.push((0, (home + 1) % members));
        moves.push((0, home));

        let events: Vec<Observation> = raw
            .iter()
            .flat_map(|&(r, k, v)| (0..jobs).map(move |j| job_variant(j, r, k, v)))
            .collect();
        let chunks: Vec<&[Observation]> = events.chunks(7).collect();
        let mut sent = 0;
        for (k, &(job, to)) in moves.iter().enumerate() {
            // Move k runs after chunk k·chunks/moves, so the moves
            // spread over the workload (several after one chunk when
            // they outnumber the chunks).
            let upto = k * chunks.len() / moves.len() + 1;
            for chunk in &chunks[sent..upto] {
                ctl.observe_batch(chunk);
                tri.observe_batch(chunk);
            }
            sent = upto;
            let from = trial.member_of(job);
            let moved = trial
                .migrate_job(job, from, to)
                .expect("identically configured members must accept the snapshot");
            prop_assert_eq!(trial.member_of(job), to, "route follows the move");
            if from == to {
                prop_assert_eq!(moved, 0, "self-migration is a no-op");
            } else {
                prop_assert!(
                    !trial.member(from).client().resident_jobs().contains(&job),
                    "no remnant on the source"
                );
                prop_assert_eq!(
                    trial.member(to).client().resident_jobs().contains(&job),
                    moved > 0,
                    "moved streams are resident on the target"
                );
            }
        }
        for chunk in &chunks[sent..] {
            ctl.observe_batch(chunk);
            tri.observe_batch(chunk);
        }
        prop_assert_eq!(trial.member_of(0), home, "job 0 ends on its first member");

        let mut queries = Vec::new();
        for j in 0..jobs {
            for rank in 0..RANKS {
                for kind in StreamKind::ALL {
                    for h in 1..=HORIZONS {
                        queries.push(Query::new(jkey(j, rank, kind), h));
                    }
                }
            }
        }
        let (mut want, mut got) = (Vec::new(), Vec::new());
        ctl.predict_batch(&queries, &mut want);
        tri.predict_batch(&queries, &mut got);
        prop_assert_eq!(&got, &want, "a migration schedule changed a prediction");

        // Rollups match modulo the migration layout detail
        // (`predictions_served` counts on shards that ingested the
        // job; migration plants history on the target's shard 0). The
        // reclamation counters (`evicted`, `resident_streams`) follow
        // sweep progress, which depends on which shards a job's traffic
        // reached, so both sides sweep to the same point first.
        let normalize = |mut rolls: Vec<(JobId, mpp_engine::JobMetrics)>| {
            for (_, m) in &mut rolls { m.predictions_served = 0; }
            rolls
        };
        ctl.sweep_expired();
        tri.sweep_expired();
        prop_assert_eq!(
            normalize(ctl.job_metrics()),
            normalize(tri.job_metrics()),
            "a migration schedule changed a job rollup"
        );
        prop_assert_eq!(
            ctl.metrics_total().events_ingested,
            tri.metrics_total().events_ingested
        );
    }
}

/// Flooding then evicting job A leaves job B's predictions, periods,
/// confidence and metrics rollup exactly unchanged.
#[test]
fn evicting_and_flooding_one_job_never_changes_another() {
    let fed = FederatedEngine::new(FederationConfig::new(2, 4));
    let client = fed.client();
    const A: JobId = 1;
    const B: JobId = 2;

    // Train job B on periodic streams across several ranks.
    let mut train_b = Vec::new();
    for _ in 0..12 {
        for r in 0..RANKS {
            train_b.push(Observation::new(
                jkey(B, r, StreamKind::Sender),
                u64::from(r % 3),
            ));
            train_b.push(Observation::new(jkey(B, r, StreamKind::Size), 64));
        }
    }
    client.observe_batch(&train_b);

    // Snapshot everything observable about B.
    let keys: Vec<StreamKey> = (0..RANKS)
        .flat_map(|r| {
            [
                jkey(B, r, StreamKind::Sender),
                jkey(B, r, StreamKind::Size),
                jkey(B, r, StreamKind::Tag),
            ]
        })
        .collect();
    let snapshot = |client: &mpp_engine::FederatedClient| {
        let mut out = Vec::new();
        for &k in &keys {
            for h in 1..=HORIZONS {
                out.push(client.predict(k, h));
            }
            out.push(client.period_of(k).map(|p| p as u64));
            out.push(client.confidence_of(k).map(|c| c.to_bits()));
        }
        out
    };
    let before_preds = snapshot(&client);
    let mut before_roll = client.job_metrics_of(B);

    // Flood job A: same ranks and kinds, lots of noisy traffic, on
    // both its hash member and (via pin changes) everywhere.
    let mut flood = Vec::new();
    for i in 0..5_000u64 {
        flood.push(Observation::new(
            jkey(
                A,
                (i % u64::from(RANKS)) as u32,
                StreamKind::ALL[(i % 3) as usize],
            ),
            i * 7919 % 13,
        ));
    }
    client.observe_batch(&flood);
    fed.pin_job(A, (fed.member_of(A) + 1) % 2); // strand state, retrain
    client.observe_batch(&flood);
    assert!(client.evict_job(A) > 0, "flooded job had resident streams");
    client.sweep_expired();

    // B is untouched: predictions, periods, confidence, rollup.
    let after_preds = snapshot(&client);
    assert_eq!(before_preds, after_preds, "job B's predictions changed");
    let after_roll = client.job_metrics_of(B);
    // The snapshots themselves served predictions; account for exactly
    // those and require everything else identical.
    before_roll.predictions_served = after_roll.predictions_served;
    assert_eq!(before_roll, after_roll, "job B's rollup changed");
    assert_eq!(
        after_roll.evicted, 0,
        "evicting A must not evict any of B's streams"
    );
    assert!(client.resident_jobs().contains(&B));
    assert!(!client.resident_jobs().contains(&A), "A fully reclaimed");
}

/// Chaos: a shard worker killed inside one member mid-run surfaces
/// `FederationWorkerGone` with exact job/member/shard attribution,
/// while jobs served by other members — including legs in the same
/// mixed batch — keep flowing.
#[test]
fn dead_member_worker_attributes_job_and_member_and_spares_other_jobs() {
    let fed = FederatedEngine::new(FederationConfig::new(2, 2));
    let client = fed.client();

    // Two jobs on two different members.
    let job_a = (0..32u32)
        .find(|&j| fed.member_of(j) == 0)
        .expect("job on member 0");
    let job_b = (0..32u32)
        .find(|&j| fed.member_of(j) == 1)
        .expect("job on member 1");
    let ka = jkey(job_a, 0, StreamKind::Sender);
    let kb = jkey(job_b, 0, StreamKind::Sender);
    for i in 0..20u64 {
        client.observe_batch(&[Observation::new(ka, i % 2), Observation::new(kb, i % 3)]);
    }
    assert_eq!(client.period_of(ka), Some(2));
    assert_eq!(client.period_of(kb), Some(3));

    // Kill the worker serving job A's rank inside member 0.
    let dead_shard = fed.member(0).shard_for_job(job_a, 0);
    fed.member(0).debug_kill_worker(dead_shard, true);

    // Mid-run submission: the mixed batch errs with job A / member 0 /
    // the dead shard — and job B's leg was still dispatched first.
    // (Federation-wide metrics would broadcast into the dead member
    // and fail loudly — correct behaviour — so B's rollup is read from
    // its own, healthy member.)
    let b_rollup = || {
        fed.member(1)
            .client()
            .job_metrics()
            .into_iter()
            .find(|&(j, _)| j == job_b)
            .map(|(_, m)| m)
            .unwrap_or_default()
    };
    let b_before = b_rollup().events_ingested;
    let err = client
        .try_observe_batch(&[
            Observation::new(ka, 0),
            Observation::new(kb, 20 % 3), // continues B's period-3 pattern
        ])
        .expect_err("dead lane must surface");
    assert_eq!(
        err,
        FederationWorkerGone {
            job: job_a,
            member: 0,
            gone: WorkerGone { shard: dead_shard },
            // Job B's leg landed on its healthy member and the error
            // accounts for it, so callers never blind-retry it.
            outcome: ObserveOutcome {
                enqueued: 1,
                shed: 0
            },
        }
    );
    let msg = err.to_string();
    assert!(
        msg.contains("member 0") && msg.contains(&format!("job {job_a}")),
        "attribution missing from message: {msg}"
    );
    assert_eq!(
        b_rollup().events_ingested,
        b_before + 1,
        "healthy member's leg in the failing batch still ingested"
    );

    // Job B keeps serving end to end (pattern continues from i = 21).
    for i in 21..30u64 {
        assert!(client
            .try_observe_batch(&[Observation::new(kb, i % 3)])
            .expect("member 1 is healthy")
            .complete());
    }
    assert_eq!(client.predict(kb, 1), Some(0), "last value was 29 % 3 = 2");
    assert_eq!(client.period_of(kb), Some(3));

    // Single-job fast path gets the same attribution.
    let err = client
        .try_observe_batch(&[Observation::new(ka, 1)])
        .expect_err("dead lane again");
    assert_eq!((err.job, err.member), (job_a, 0));
    assert_eq!(
        err.outcome,
        ObserveOutcome::default(),
        "nothing landed on a healthy member in a single-job batch"
    );
}

/// Satellite of the durability PR: `quiesce_job` is idempotent and
/// typed. Draining twice is a no-op barrier reporting the same route,
/// and quiescing a job the federation has never seen drains its
/// hash-routed member and reports `resident: false` — orchestration
/// code (operators scripting migrations) can call it defensively
/// without special-casing.
#[test]
fn quiesce_job_is_idempotent_and_reports_residency() {
    let fed = FederatedEngine::new(FederationConfig::new(2, 2));
    let client = fed.client();
    let job = (0..32u32)
        .find(|&j| fed.member_of(j) == 0)
        .expect("a job routed to member 0");
    for i in 0..20u64 {
        client.observe_batch(&[Observation::new(
            jkey(job, (i % 2) as u32, StreamKind::Sender),
            i % 3,
        )]);
    }

    let first = fed.quiesce_job(job);
    assert_eq!((first.job, first.member), (job, 0));
    assert!(first.resident, "ingested job has resident streams");

    // Double drain: same typed answer, nothing changes.
    let second = fed.quiesce_job(job);
    assert_eq!(second, first, "double drain is a no-op");
    assert_eq!(
        client.job_metrics_of(job).events_ingested,
        20,
        "quiescing twice ingests nothing new"
    );
    assert_eq!(
        client.predict(jkey(job, 0, StreamKind::Sender), 1),
        client.predict(jkey(job, 0, StreamKind::Sender), 1),
        "predictions unchanged across drains"
    );

    // Unknown job: drains the hash-routed member, reports no residency.
    let unknown = (0..64u32)
        .find(|&j| !client.resident_jobs().contains(&j))
        .expect("an unseen job id");
    let report = fed.quiesce_job(unknown);
    assert_eq!(report.job, unknown);
    assert_eq!(report.member, fed.member_of(unknown));
    assert!(!report.resident, "never-seen job has no resident streams");
    assert_eq!(
        fed.quiesce_job(unknown),
        report,
        "unknown-job drain is idempotent too"
    );

    // A quiesced-then-evicted job reports non-resident afterwards.
    client.evict_job(job);
    assert!(!fed.quiesce_job(job).resident, "evicted state is gone");
}
