//! Replays NAS benchmark traces through the `mpp-engine` serving layer
//! at full speed: every rank's sender/size/tag streams are ingested in
//! batches, then the engine's online `+1` accuracy, period churn,
//! eviction counts, and ingest rate are reported per configuration.
//!
//! ```text
//! cargo run -p mpp-experiments --release --bin engine_replay -- \
//!     [--csv] [--seed N] [--shards K] [--ttl N] \
//!     [--queue-cap N] [--backpressure block|shed] \
//!     [--jobs K] [--engines E] [--ensemble] [--ensemble-full] \
//!     [--telemetry-json PATH] [--stats-every N] [bt 9 | cg 8 | ring 8 | pp 8 | ...]
//! ```
//!
//! With no positional arguments, the paper's full configuration roster
//! is replayed (the Table 1 set), giving an engine-level summary of the
//! paper's central claim: these streams are predictable enough to serve.
//! `--ttl N` evicts streams idle for more than `N` engine-time events.
//! `--queue-cap N` bounds each shard's observe lane to `N` queued
//! commands and `--backpressure` picks the full-lane policy: `block`
//! (default, bit-identical results) or `shed` (drop-with-count; the
//! `shed` column reports the losses).
//!
//! Either telemetry flag enables the engine's telemetry layer (latency
//! histograms, counters, flight recorder). `--telemetry-json PATH`
//! writes one JSON document covering every replayed configuration —
//! per-config engine counters next to the full telemetry snapshot, so
//! the `telemetry_check` binary can cross-validate them. `--stats-every
//! N` captures a cumulative snapshot every `N` ingest batches and (in
//! table mode) prints ingest/queue-wait latency progress lines; the
//! extra snapshot round-trips perturb `events/sec`, so keep it off when
//! measuring rate. Telemetry also adds three CSV columns: ingest p50 /
//! p99 and queue-wait p99 (empty when telemetry is off).
//!
//! `--ensemble` swaps the DPD-only predictor bank for the standard
//! champion/challenger roster: every stream scores a last-value,
//! stride and first-order-Markov challenger next to the primary DPD
//! and serves from whichever holds the championship. Table mode gains
//! one `[model]` row per roster member (win rate = share of events
//! served as champion, plus the member's own `+1` hit rate), and
//! telemetry snapshots carry `model_mix_*`/`champion_swaps` counters
//! and `champion_swapped` flight events. `--ensemble-full` widens the
//! roster to every implemented challenger (adds frequency, cycle, tag
//! and the hybrid committee).
//!
//! `--snapshot PATH` replays a single configuration to its midpoint
//! (half the trace, rounded down to a whole ingest batch), writes the
//! engine's versioned snapshot to `PATH`, and exits. `--restore PATH`
//! boots the engine from a snapshot written with the same
//! configuration and replays only the remaining events — the report
//! covers the whole trace, with `restored`/`replayed` splitting the
//! events carried in from the snapshot from those ingested live. Both
//! flags require exactly one configuration and `--engines 1`.
//!
//! `--wal DIR` replays a single configuration through a *durable*
//! engine: every batch is appended to the segmented observation log
//! under `DIR`, a snapshot checkpoint anchors the midpoint, and the log
//! is fsynced before exit. `--recover DIR`
//! rebuilds the engine from `DIR` (newest valid snapshot + log tail,
//! truncating any torn frame) and replays only the trace events the
//! recovered state had not yet ingested — so `--wal` run, killed at
//! any moment, then `--recover` run, lands on the same final state as
//! an uninterrupted replay (the CI kill-9 smoke does exactly that).
//! Both flags require one configuration and `--engines 1`.
//! Restored/recovered runs also audit their own accounting: if
//! the engine's `events_ingested` disagrees with `restored +
//! replayed`, or events went missing against the trace, the run exits
//! nonzero.

use mpp_engine::{BackpressurePolicy, DurabilityConfig, TelemetrySnapshot};
use mpp_experiments::replay::{
    replay, replay_from_snapshot, replay_recover, replay_to_snapshot, replay_with_wal, ReplayOpts,
    ReplayReport,
};
use mpp_experiments::CliArgs;
use mpp_nasbench::{paper_configs, BenchId, BenchmarkConfig, Class};

/// The three latency columns appended to CSV rows (empty without
/// telemetry): ingest-batch p50/p99 and queue-wait p99, nanoseconds.
fn telemetry_csv_fields(snap: Option<&TelemetrySnapshot>) -> String {
    match snap {
        Some(s) => {
            let q = |name: &str, quantile: f64| {
                s.histogram(name)
                    .map_or(String::new(), |h| h.quantile(quantile).to_string())
            };
            format!(
                "{},{},{}",
                q("observe_batch_ns", 0.5),
                q("observe_batch_ns", 0.99),
                q("queue_wait_ns", 0.99)
            )
        }
        None => ",,".to_string(),
    }
}

/// One config's entry in the `--telemetry-json` document: the engine's
/// counter rollup next to the telemetry snapshot, so `telemetry_check`
/// can cross-validate the two without re-running the replay.
fn telemetry_json_entry(out: &mut String, r: &ReplayReport, snap: &TelemetrySnapshot) {
    let t = &r.total;
    out.push_str(&format!(
        "{{\"config\":\"{}\",\"events\":{},\
         \"restored_events\":{},\"replayed_events\":{},\"metrics\":{{\
         \"events_ingested\":{},\"predictions_served\":{},\
         \"forecasts_served\":{},\"forecast_predictions\":{},\
         \"hits\":{},\"misses\":{},\"abstentions\":{},\
         \"period_churn\":{},\"evicted\":{},\"resident_streams\":{}}},\
         \"telemetry\":",
        r.label,
        r.events,
        r.restored_events,
        r.replayed_events,
        t.events_ingested,
        t.predictions_served,
        t.forecasts_served,
        t.forecast_predictions,
        t.hits,
        t.misses,
        t.abstentions,
        t.period_churn,
        t.evicted,
        t.resident_streams,
    ));
    snap.write_json(out);
    out.push('}');
}

fn parse_bench(name: &str) -> Option<BenchId> {
    match name {
        "bt" => Some(BenchId::Bt),
        "cg" => Some(BenchId::Cg),
        "lu" => Some(BenchId::Lu),
        "is" => Some(BenchId::Is),
        "sw" | "sweep3d" => Some(BenchId::Sweep3d),
        "ring" => Some(BenchId::Ring),
        "pp" | "pingpong" => Some(BenchId::PingPong),
        _ => None,
    }
}

fn main() {
    let mut args = CliArgs::parse();
    let seed = args.seed;
    let shards = match args.take_flag("--shards") {
        Some(v) => v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--shards needs a positive integer");
            std::process::exit(2);
        }),
        None => std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
    };
    let ttl: Option<u64> = args.take_flag("--ttl").map(|v| {
        v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--ttl needs a positive event count");
            std::process::exit(2);
        })
    });
    let queue_cap: Option<usize> = args.take_flag("--queue-cap").map(|v| {
        v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--queue-cap needs a positive command count");
            std::process::exit(2);
        })
    });
    let backpressure_flag = args.take_flag("--backpressure");
    let backpressure = match backpressure_flag.as_deref() {
        None | Some("block") => BackpressurePolicy::Block,
        Some("shed") => BackpressurePolicy::Shed,
        Some(other) => {
            eprintln!("unknown backpressure policy {other} (block|shed)");
            std::process::exit(2);
        }
    };
    let jobs: usize = args.take_flag("--jobs").map_or(1, |v| {
        v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--jobs needs a positive job count");
            std::process::exit(2);
        })
    });
    let engines: usize = args.take_flag("--engines").map_or(1, |v| {
        v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--engines needs a positive engine count");
            std::process::exit(2);
        })
    });
    let ensemble = args.take_bool_flag("--ensemble");
    let ensemble_full = args.take_bool_flag("--ensemble-full");
    let snapshot_path = args.take_flag("--snapshot");
    let restore_path = args.take_flag("--restore");
    if snapshot_path.is_some() && restore_path.is_some() {
        eprintln!("--snapshot and --restore are mutually exclusive (write, then restore)");
        std::process::exit(2);
    }
    if (snapshot_path.is_some() || restore_path.is_some()) && engines > 1 {
        eprintln!("snapshots capture a single engine (--engines 1)");
        std::process::exit(2);
    }
    let wal_dir = args.take_flag("--wal");
    let recover_dir = args.take_flag("--recover");
    if wal_dir.is_some() && recover_dir.is_some() {
        eprintln!("--wal and --recover are mutually exclusive (log, then recover)");
        std::process::exit(2);
    }
    let durable = wal_dir.is_some() || recover_dir.is_some();
    if durable && (snapshot_path.is_some() || restore_path.is_some()) {
        eprintln!("--wal/--recover manage their own snapshots (no --snapshot/--restore alongside)");
        std::process::exit(2);
    }
    if durable && engines > 1 {
        eprintln!("the observation log records a single engine (--engines 1)");
        std::process::exit(2);
    }
    let telemetry_json = args.take_flag("--telemetry-json");
    let stats_every: Option<usize> = args.take_flag("--stats-every").map(|v| {
        v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--stats-every needs a positive batch count");
            std::process::exit(2);
        })
    });
    // Either flag opts the replay into the telemetry layer.
    let telemetry = telemetry_json.is_some() || stats_every.is_some();
    // A policy without a lane bound would be a silent no-op (policies
    // only apply to full bounded lanes) — reject the misconfiguration
    // instead of reporting shed=0 on an unbounded run.
    if backpressure_flag.is_some() && queue_cap.is_none() {
        eprintln!("--backpressure requires --queue-cap (policies act on bounded lanes only)");
        std::process::exit(2);
    }
    let positional = args.positional;

    let configs: Vec<BenchmarkConfig> = if positional.is_empty() {
        paper_configs()
    } else {
        let id = parse_bench(&positional[0]).unwrap_or_else(|| {
            eprintln!("unknown benchmark {}", positional[0]);
            std::process::exit(2);
        });
        // Default to each benchmark's smallest paper configuration (CG,
        // LU and IS require power-of-two worlds; BT squares; SW 2x3).
        let procs: usize = positional
            .get(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| id.paper_proc_counts()[0]);
        let class = match positional.get(2).map(String::as_str) {
            Some("S") | None => Class::S,
            Some("A") => Class::A,
            Some("B") => Class::B,
            Some(other) => {
                eprintln!("unknown class {other}");
                std::process::exit(2);
            }
        };
        vec![BenchmarkConfig::new(id, procs, class)]
    };

    let opts = ReplayOpts::with_shards(shards)
        .ttl(ttl)
        .queue_cap(queue_cap)
        .backpressure(backpressure)
        .jobs(jobs)
        .engines(engines)
        .ensemble(ensemble)
        .ensemble_full(ensemble_full)
        .telemetry(telemetry)
        .stats_every(stats_every);

    if (snapshot_path.is_some() || restore_path.is_some() || durable) && configs.len() != 1 {
        eprintln!(
            "--snapshot/--restore/--wal/--recover need exactly one configuration (e.g. `cg 8 A`)"
        );
        std::process::exit(2);
    }
    if let Some(path) = &snapshot_path {
        let (bytes, halted) = replay_to_snapshot(&configs[0], seed, &opts, None);
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote snapshot {path}: {halted} events ingested, {} bytes",
            bytes.len()
        );
        return;
    }
    let restore_bytes = restore_path.map(|path| {
        std::fs::read(&path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        })
    });

    let cap_label = queue_cap.map_or("off".to_string(), |c| c.to_string());
    if args.csv {
        println!(
            "config,events,streams,hit_rate,period_churn,evicted,shed,events_per_sec,\
             shards,ttl,queue_cap,backpressure,jobs,engines,\
             observe_p50_ns,observe_p99_ns,queue_wait_p99_ns"
        );
    } else {
        let ttl_label = ttl.map_or("off".to_string(), |t| t.to_string());
        println!(
            "engine replay — {shards} shard(s), seed {seed}, ttl {ttl_label}, \
             queue cap {cap_label}, backpressure {}, {jobs} job(s), {engines} engine(s)",
            backpressure.label()
        );
        println!(
            "{:<14} {:>9} {:>8} {:>9} {:>7} {:>8} {:>8} {:>14}",
            "config", "events", "streams", "hit_rate", "churn", "evicted", "shed", "events/sec"
        );
    }
    let mut json_entries = String::new();
    let mut accounting_bad = false;
    for config in &configs {
        let mut recovery = None;
        let r = if let Some(dir) = &wal_dir {
            replay_with_wal(config, seed, &opts, DurabilityConfig::new(dir))
        } else if let Some(dir) = &recover_dir {
            match replay_recover(config, seed, &opts, DurabilityConfig::new(dir)) {
                Ok((r, rec)) => {
                    recovery = Some(rec);
                    r
                }
                Err(e) => {
                    eprintln!("failed to recover from {dir}: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            match &restore_bytes {
                Some(bytes) => {
                    replay_from_snapshot(config, seed, &opts, bytes).unwrap_or_else(|e| {
                        eprintln!("failed to restore snapshot: {e}");
                        std::process::exit(1);
                    })
                }
                None => replay(config, seed, &opts),
            }
        };
        // A restored/recovered run that loses or double-counts events
        // would still print a plausible table — audit the split so CI
        // catches it. `events_ingested` must be exactly the carried-in
        // count plus the live-replayed count, and (minus shed losses)
        // the whole trace must have landed.
        if restore_bytes.is_some() || recover_dir.is_some() {
            let ingested = r.total.events_ingested;
            if ingested != r.restored_events + r.replayed_events
                || ingested + r.total.shed_events != r.events as u64
            {
                eprintln!(
                    "accounting mismatch for {}: events_ingested {} != restored {} + \
                     replayed {} (trace {}, shed {})",
                    r.label,
                    ingested,
                    r.restored_events,
                    r.replayed_events,
                    r.events,
                    r.total.shed_events,
                );
                accounting_bad = true;
            }
        }
        if args.csv {
            println!(
                "{},{},{},{:.4},{},{},{},{:.0},{},{},{},{},{},{},{}",
                r.label,
                r.events,
                r.total.resident_streams,
                r.hit_rate(),
                r.total.period_churn,
                r.total.evicted,
                r.total.shed_events,
                r.events_per_sec,
                shards,
                ttl.map_or("off".to_string(), |t| t.to_string()),
                cap_label,
                backpressure.label(),
                jobs,
                engines,
                telemetry_csv_fields(r.telemetry.as_ref()),
            );
        } else {
            println!(
                "{:<14} {:>9} {:>8} {:>8.1}% {:>7} {:>8} {:>8} {:>14.0}",
                r.label,
                r.events,
                r.total.resident_streams,
                100.0 * r.hit_rate(),
                r.total.period_churn,
                r.total.evicted,
                r.total.shed_events,
                r.events_per_sec
            );
            if let Some(rec) = &recovery {
                println!(
                    "  [recover] {} events from the snapshot anchor + {} from the log tail, \
                     {} replayed live ({} snapshot(s) skipped{})",
                    rec.snapshot_events,
                    rec.wal_events,
                    r.events as u64 - rec.events(),
                    rec.snapshots_skipped,
                    if rec.wal_truncated {
                        ", torn log tail truncated"
                    } else {
                        ""
                    },
                );
            } else if r.restored_events > 0 {
                println!(
                    "  [restore] {} events carried in from the snapshot, {} replayed live",
                    r.restored_events, r.replayed_events
                );
            }
            for iv in &r.intervals {
                let q = |name: &str, quantile: f64| {
                    iv.snapshot
                        .histogram(name)
                        .map_or(0, |h| h.quantile(quantile))
                };
                println!(
                    "  [stats] events {:>9}  ingest p50 {:>8}ns p99 {:>8}ns  \
                     queue-wait p99 {:>8}ns  flight {:>4}",
                    iv.events,
                    q("observe_batch_ns", 0.5),
                    q("observe_batch_ns", 0.99),
                    q("queue_wait_ns", 0.99),
                    iv.snapshot.flight().len(),
                );
            }
            // Ensemble replays: one row per roster member — its share
            // of served events (win rate) and its own scoring rate.
            for &(label, m) in &r.models {
                println!(
                    "  [model] {label:<10} win {:>5.1}%  hit {:>5.1}%  swaps-in {:>5}",
                    100.0 * r.model_win_rate(label),
                    100.0 * m.hit_rate().unwrap_or(0.0),
                    m.swaps_in,
                );
            }
            // Always printed — a single-tenant replay is job 0's row,
            // so the per-job and total views can be eyeballed against
            // each other in every run.
            for &(job, m) in &r.per_job {
                println!(
                    "  job {job:<4} {:>15} {:>8} {:>8.1}%",
                    m.events_ingested,
                    m.resident_streams,
                    100.0 * m.hit_rate().unwrap_or(0.0),
                );
            }
        }
        if telemetry_json.is_some() {
            let snap = r.telemetry.as_ref().expect("telemetry was enabled");
            if !json_entries.is_empty() {
                json_entries.push(',');
            }
            telemetry_json_entry(&mut json_entries, &r, snap);
        }
    }
    if let Some(path) = telemetry_json {
        let doc = format!("{{\"configs\":[{json_entries}]}}");
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
    if accounting_bad {
        std::process::exit(1);
    }
}
