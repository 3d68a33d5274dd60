//! End-to-end: a simulated world whose ranks are served by the shared
//! prediction engine behaves exactly like one using per-rank local DPD
//! oracles — same makespans, same message contents — while the engine
//! accumulates serving metrics for every rank's streams.

use mpp_core::dpd::DpdConfig;
use mpp_engine::{StreamKey, StreamKind};
use mpp_mpisim::net::{IdealNetwork, JitterNetwork};
use mpp_mpisim::{Comm, RankProgram, World, WorldConfig};
use mpp_runtime::{DpdOracleFactory, EngineHandle, EngineOracleFactory};

/// Rank 0 streams periodic large messages to rank 1 (late-posting), a
/// shape the §2.3 optimisation accelerates once the pattern locks.
struct BigPipeline;

impl RankProgram for BigPipeline {
    fn run(&self, c: &mut Comm) {
        const N: u64 = 40;
        if c.rank() == 0 {
            for i in 0..N {
                c.send(1, 1, 1 << 20, i);
            }
        } else {
            for i in 0..N {
                let m = c.recv(0, 1);
                assert_eq!(m.payload, i);
                c.compute(50_000);
            }
        }
    }
}

fn depth() -> usize {
    4
}

#[test]
fn engine_oracle_matches_local_dpd_oracle() {
    let cfg = WorldConfig::new(2).seed(9).noiseless();
    let local = World::new(cfg.clone(), IdealNetwork::from_config(&cfg))
        .with_oracle(DpdOracleFactory {
            cfg: DpdConfig::default(),
            depth: depth(),
        })
        .run(&BigPipeline);
    let handle = EngineHandle::with_config(4, DpdConfig::default());
    let served = World::new(cfg.clone(), IdealNetwork::from_config(&cfg))
        .with_oracle(EngineOracleFactory::new(handle, depth()))
        .run(&BigPipeline);
    assert_eq!(
        local.makespan(),
        served.makespan(),
        "engine-served grants must reproduce local-oracle timing exactly"
    );
    assert_eq!(local.total_receives(), served.total_receives());
}

#[test]
fn engine_oracle_beats_no_oracle() {
    let cfg = WorldConfig::new(2).seed(9).noiseless();
    let base = World::new(cfg.clone(), IdealNetwork::from_config(&cfg)).run(&BigPipeline);
    let handle = EngineHandle::with_config(2, DpdConfig::default());
    let served = World::new(cfg.clone(), IdealNetwork::from_config(&cfg))
        .with_oracle(EngineOracleFactory::new(handle, depth()))
        .run(&BigPipeline);
    assert!(
        served.makespan() < base.makespan(),
        "predicted pre-allocation must shorten the run: {} vs {}",
        served.makespan(),
        base.makespan()
    );
}

/// Two simulated worlds sharing one federated handle through
/// job-scoped factories behave exactly as if each had a private
/// engine: no stream collisions, no cross-job interference, identical
/// makespans — the multi-tenant contract end to end.
#[test]
fn job_scoped_worlds_on_one_federation_match_private_engines() {
    use mpp_engine::FederationConfig;
    let cfg = WorldConfig::new(2).seed(9).noiseless();
    // Reference: each world with its own dedicated engine.
    let solo_a = World::new(cfg.clone(), IdealNetwork::from_config(&cfg))
        .with_oracle(EngineOracleFactory::new(
            EngineHandle::with_config(2, DpdConfig::default()),
            depth(),
        ))
        .run(&BigPipeline);
    let chatter = |c: &mut Comm| {
        // A different program shape: small tagged ping-pong.
        if c.rank() == 0 {
            for i in 0..25u64 {
                c.send(1, 3, 256, i);
                c.recv(1, 4);
            }
        } else {
            for i in 0..25u64 {
                let m = c.recv(0, 3);
                c.send(0, 4, 128, m.payload);
                let _ = i;
            }
        }
    };
    let solo_b = World::new(cfg.clone(), IdealNetwork::from_config(&cfg))
        .with_oracle(EngineOracleFactory::new(
            EngineHandle::with_config(2, DpdConfig::default()),
            depth(),
        ))
        .run(&chatter);
    // Shared: one 2-member federation, one job per world.
    let shared = EngineHandle::from_federation_config(FederationConfig::new(2, 2));
    let fed_a = World::new(cfg.clone(), IdealNetwork::from_config(&cfg))
        .with_oracle(EngineOracleFactory::for_job(shared.clone(), 1, depth()))
        .run(&BigPipeline);
    let fed_b = World::new(cfg.clone(), IdealNetwork::from_config(&cfg))
        .with_oracle(EngineOracleFactory::for_job(shared.clone(), 2, depth()))
        .run(&chatter);
    assert_eq!(solo_a.makespan(), fed_a.makespan(), "job 1 interference");
    assert_eq!(solo_b.makespan(), fed_b.makespan(), "job 2 interference");
    // Both tenants' streams are resident, disjointly namespaced.
    assert_eq!(shared.client().resident_jobs(), vec![1, 2]);
    let jobs = shared.client().job_metrics();
    let solo_events = 3 * solo_a.total_receives() as u64;
    assert_eq!(jobs[0].1.events_ingested, solo_events);
    assert!(jobs[1].1.events_ingested > 0);
    assert_eq!(
        shared
            .client()
            .period_of(StreamKey::new(1, StreamKind::Sender)),
        None,
        "nothing lives in the default job"
    );
}

#[test]
fn engine_accumulates_streams_for_every_receiving_rank() {
    let cfg = WorldConfig::new(4).seed(3);
    let handle = EngineHandle::with_config(4, DpdConfig::default());
    let factory = EngineOracleFactory::new(handle.clone(), depth());
    let trace = World::new(cfg.clone(), JitterNetwork::from_config(&cfg))
        .with_oracle(factory)
        .run(&|c: &mut Comm| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            for r in 0..30u64 {
                c.send(next, 7, 4096, r);
                c.recv(prev, 7);
            }
        });
    // Every rank received 30 messages; each delivery feeds 3 streams.
    let total = handle.client().metrics().total();
    assert_eq!(trace.total_receives(), 120);
    assert_eq!(total.events_ingested, 3 * 120);
    assert_eq!(total.resident_streams, 4 * 3, "sender/size/tag per rank");
    // Constant-attribute ring traffic is maximally predictable.
    assert!(total.hit_rate().unwrap_or(0.0) > 0.8);
    // Engine-side stream state is inspectable per rank.
    for rank in 0..4u32 {
        let p = handle
            .client()
            .period_of(StreamKey::new(rank, StreamKind::Sender));
        assert_eq!(p, Some(1), "single-sender stream has period 1");
    }
}
