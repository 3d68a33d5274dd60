//! Golden-trace regression pins for the engine replay path.
//!
//! CHANGES.md records class-A CG/BT replay hit rates of 97.8–100 %
//! (the paper-level accuracy the serving layer must preserve). These
//! tests pin the exact rates, measured at the default seed, with a
//! ±0.1 pt tolerance, so a later engine refactor that silently
//! degrades accuracy fails loudly instead of shipping. The traces are
//! deterministic functions of the seed (`tests/determinism.rs`), so
//! within-tolerance drift can only come from engine-side changes.

use mpp_engine::{SnapshotError, SNAPSHOT_VERSION};
use mpp_experiments::replay::{replay, replay_from_snapshot, replay_to_snapshot, ReplayOpts};
use mpp_experiments::DEFAULT_SEED;
use mpp_nasbench::{BenchId, BenchmarkConfig, Class};

/// ±0.1 percentage point, as a rate.
const TOLERANCE: f64 = 0.001;

/// Golden online `+1` hit rates (default seed 2003, default detector):
/// measured on the seed engine and re-confirmed on the persistent
/// engine (bit-identical by `tests/persistence.rs`).
const GOLDEN: [(BenchId, usize, f64); 2] = [(BenchId::Cg, 8, 0.9982), (BenchId::Bt, 9, 0.9995)];

fn check(opts: &ReplayOpts, label: &str) {
    for (id, procs, want) in GOLDEN {
        let cfg = BenchmarkConfig::new(id, procs, Class::A);
        let r = replay(&cfg, DEFAULT_SEED, opts);
        let got = r.hit_rate();
        assert!(
            (got - want).abs() <= TOLERANCE,
            "{} ({label}) hit rate drifted: got {got:.4}, pinned {want:.4} ±{TOLERANCE:.4}",
            r.label,
        );
        // The CHANGES.md envelope for the whole class-A roster.
        assert!(
            (0.978..=1.0).contains(&got),
            "{} left the paper-level accuracy envelope: {got:.4}",
            r.label
        );
    }
}

#[test]
fn class_a_hit_rates_stay_pinned_persistent() {
    check(&ReplayOpts::with_shards(4), "persistent");
}

#[test]
fn class_a_hit_rates_stay_pinned_one_shard() {
    check(&ReplayOpts::with_shards(1), "1-shard");
}

/// The backpressure acceptance pin: bounded `Block`-mode lanes must
/// leave the golden class-A hit rates exactly where the unbounded
/// engine has them (±0.1 pt by the shared tolerance; bit-identical by
/// `mpp-engine/tests/backpressure.rs`).
#[test]
fn class_a_hit_rates_stay_pinned_bounded_block() {
    check(
        &ReplayOpts::with_shards(4).queue_cap(Some(4)),
        "bounded-block",
    );
}

/// The federation acceptance pin: 2 engines × 2 interleaved job copies
/// of each class-A config must leave every job's hit rate exactly where
/// the single-engine, single-job run has it (±0.1 pt by the shared
/// tolerance; per-job bit-identity by `mpp-engine/tests/federation.rs`).
#[test]
fn class_a_hit_rates_stay_pinned_federated_per_job() {
    const JOBS: usize = 2;
    let opts = ReplayOpts::with_shards(2).jobs(JOBS).engines(2);
    for (id, procs, want) in GOLDEN {
        let cfg = BenchmarkConfig::new(id, procs, Class::A);
        let r = replay(&cfg, DEFAULT_SEED, &opts);
        assert_eq!(r.per_job.len(), JOBS, "one rollup per job copy");
        for job in 0..JOBS as u32 {
            let got = r.job_hit_rate(job);
            assert!(
                (got - want).abs() <= TOLERANCE,
                "{} job {job} (federated 2x2) hit rate drifted: got {got:.4}, \
                 pinned {want:.4} ±{TOLERANCE:.4}",
                r.label,
            );
        }
        // All job copies replay the same trace: bit-identical rollups.
        assert!(
            r.per_job.windows(2).all(|w| w[0].1 == w[1].1),
            "{}: identical job copies must produce identical rollups",
            r.label
        );
    }
}

/// The snapshot acceptance pin: replaying each golden class-A config
/// to its midpoint, snapshotting, restoring, and replaying the rest is
/// not merely within tolerance of the uninterrupted run — the scoring
/// counters are *exactly* equal (±0 pt), at 4 shards and at 1. The
/// report's `restored`/`replayed` split must cover the whole trace.
#[test]
fn class_a_snapshot_restore_continue_is_exact() {
    for shards in [4, 1] {
        let opts = ReplayOpts::with_shards(shards);
        for (id, procs, want) in GOLDEN {
            let cfg = BenchmarkConfig::new(id, procs, Class::A);
            let full = replay(&cfg, DEFAULT_SEED, &opts);
            let (bytes, cut) = replay_to_snapshot(&cfg, DEFAULT_SEED, &opts, None);
            assert!(cut > 0, "{}: midpoint cut captured nothing", full.label);
            let r = replay_from_snapshot(&cfg, DEFAULT_SEED, &opts, &bytes)
                .expect("a snapshot this replay just wrote must restore");
            assert_eq!(r.restored_events, cut as u64, "{}", full.label);
            assert_eq!(
                r.restored_events + r.replayed_events,
                full.events as u64,
                "{}",
                full.label
            );
            let (f, t) = (&full.total, &r.total);
            assert_eq!(
                (
                    f.events_ingested,
                    f.hits,
                    f.misses,
                    f.abstentions,
                    f.period_churn
                ),
                (
                    t.events_ingested,
                    t.hits,
                    t.misses,
                    t.abstentions,
                    t.period_churn
                ),
                "{} ({shards} shards): restore-and-continue must score identically",
                full.label,
            );
            let got = r.hit_rate();
            assert!(
                (got - want).abs() <= TOLERANCE,
                "{} (restored) hit rate drifted: got {got:.4}, pinned {want:.4}",
                full.label,
            );
        }
    }
}

/// A snapshot stamped with a future format version is refused at the
/// replay level with the typed error, not misparsed into a bad engine.
#[test]
fn restoring_a_future_version_snapshot_fails_typed() {
    let cfg = BenchmarkConfig::new(BenchId::Cg, 4, Class::S);
    let opts = ReplayOpts::with_shards(2);
    let (mut bytes, _) = replay_to_snapshot(&cfg, DEFAULT_SEED, &opts, None);
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    match replay_from_snapshot(&cfg, DEFAULT_SEED, &opts, &bytes) {
        Err(SnapshotError::VersionMismatch { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        Err(other) => panic!("expected VersionMismatch, got {other:?}"),
        Ok(_) => panic!("a future-version snapshot must not restore"),
    }
}

/// Golden per-predictor *win rates* (share of ingested events each
/// roster member served as champion) for ensemble replays of the two
/// golden class-A configs plus the two synthetic workloads, default
/// seed, standard roster. Champion selection is a deterministic
/// per-stream function of the event sequence, so these are invariant
/// across shard counts (asserted below); drift means the selection rule
/// itself changed.
type WinRatePins = [(&'static str, f64); 4];

const GOLDEN_WIN_RATES: [(BenchId, usize, WinRatePins); 4] = [
    (
        BenchId::Cg,
        8,
        [
            ("dpd", 0.2242),
            ("last-value", 0.4483),
            ("stride", 0.0),
            ("markov1", 0.3275),
        ],
    ),
    (
        BenchId::Bt,
        9,
        [
            ("dpd", 0.9201),
            ("last-value", 0.0537),
            ("stride", 0.0),
            ("markov1", 0.0262),
        ],
    ),
    (
        BenchId::Ring,
        8,
        [
            ("dpd", 0.6738),
            ("last-value", 0.0116),
            ("stride", 0.0),
            ("markov1", 0.3147),
        ],
    ),
    (
        BenchId::PingPong,
        8,
        [
            ("dpd", 0.9667),
            ("last-value", 0.0333),
            ("stride", 0.0),
            ("markov1", 0.0),
        ],
    ),
];

/// The ensemble acceptance pin: per-predictor championship shares on
/// the golden configs and the synthetic ring / ping-pong workloads
/// stay where they were measured (±0.1 pt), the shares partition the
/// event stream, and a 1-shard engine agrees with the 4-shard one bit
/// for bit.
#[test]
fn ensemble_win_rates_stay_pinned() {
    for (id, procs, pins) in GOLDEN_WIN_RATES {
        let cfg = BenchmarkConfig::new(id, procs, Class::A);
        let r = replay(
            &cfg,
            DEFAULT_SEED,
            &ReplayOpts::with_shards(4).ensemble(true),
        );
        let s = replay(
            &cfg,
            DEFAULT_SEED,
            &ReplayOpts::with_shards(1).ensemble(true),
        );
        assert_eq!(
            r.models.len(),
            4,
            "{}: dpd + 3 standard challengers",
            r.label
        );
        for (label, want) in pins {
            let got = r.model_win_rate(label);
            assert!(
                (got - want).abs() <= TOLERANCE,
                "{} {label} win rate drifted: got {got:.4}, pinned {want:.4} ±{TOLERANCE:.4}",
                r.label,
            );
            assert_eq!(
                r.models.iter().find(|(l, _)| *l == label).unwrap().1,
                s.models.iter().find(|(l, _)| *l == label).unwrap().1,
                "{} {label}: per-model counters differ between 4 shards and 1",
                r.label,
            );
        }
        // Every event has exactly one champion: the shares partition
        // the stream.
        let served: u64 = r.models.iter().map(|(_, m)| m.champion_events).sum();
        assert_eq!(
            served, r.total.events_ingested,
            "{}: championship shares must partition the events",
            r.label
        );
    }
}

/// Golden win rates for the *full* challenger roster
/// ([`EnsembleConfig::full`]: standard + frequency, single-cycle, tag,
/// hybrid) on one NAS and one synthetic golden config, default seed.
/// Measured on the full roster — the shares differ from the
/// standard-roster pins above because the added challengers win
/// championships of their own (frequency and the hybrid committee take
/// real shares; cycle and tag stay benched on these traces).
type FullWinRatePins = [(&'static str, f64); 8];

const GOLDEN_FULL_WIN_RATES: [(BenchId, usize, FullWinRatePins); 2] = [
    (
        BenchId::Cg,
        8,
        [
            ("dpd", 0.2183),
            ("last-value", 0.1637),
            ("stride", 0.0),
            ("markov1", 0.2456),
            ("frequency", 0.1384),
            ("single-cycle", 0.0),
            ("tag", 0.0),
            ("hybrid", 0.2339),
        ],
    ),
    (
        BenchId::Ring,
        8,
        [
            ("dpd", 0.6738),
            ("last-value", 0.0053),
            ("stride", 0.0),
            ("markov1", 0.1584),
            ("frequency", 0.1510),
            ("single-cycle", 0.0114),
            ("tag", 0.0),
            ("hybrid", 0.0),
        ],
    ),
];

/// The full-roster acceptance pin: widening the ensemble must yield
/// exactly these championship shares (±0.1 pt), which still partition
/// the event stream, with a 1-shard engine bit-identical to the
/// 4-shard one.
#[test]
fn full_roster_win_rates_stay_pinned() {
    for (id, procs, pins) in GOLDEN_FULL_WIN_RATES {
        let cfg = BenchmarkConfig::new(id, procs, Class::A);
        let r = replay(
            &cfg,
            DEFAULT_SEED,
            &ReplayOpts::with_shards(4).ensemble_full(true),
        );
        let s = replay(
            &cfg,
            DEFAULT_SEED,
            &ReplayOpts::with_shards(1).ensemble_full(true),
        );
        assert_eq!(
            r.models.len(),
            8,
            "{}: dpd + 7 full-roster challengers",
            r.label
        );
        for (label, want) in pins {
            let got = r.model_win_rate(label);
            assert!(
                (got - want).abs() <= TOLERANCE,
                "{} {label} full-roster win rate drifted: got {got:.4}, \
                 pinned {want:.4} ±{TOLERANCE:.4}",
                r.label,
            );
            assert_eq!(
                r.models.iter().find(|(l, _)| *l == label).unwrap().1,
                s.models.iter().find(|(l, _)| *l == label).unwrap().1,
                "{} {label}: per-model counters differ between 4 shards and 1",
                r.label,
            );
        }
        let served: u64 = r.models.iter().map(|(_, m)| m.champion_events).sum();
        assert_eq!(
            served, r.total.events_ingested,
            "{}: championship shares must partition the events",
            r.label
        );
    }
}
