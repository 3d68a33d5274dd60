//! CI validator for `engine_replay --telemetry-json` documents.
//!
//! ```text
//! cargo run -p mpp-experiments --release --bin telemetry_check -- /tmp/t.json
//! ```
//!
//! Reads the exported document with the crate's dependency-free JSON
//! parser and enforces the invariants the telemetry layer promises:
//!
//! * every config entry carries `metrics` and `telemetry` sections with
//!   the full counter set, and the telemetry counters equal the
//!   engine's own `ShardMetrics` rollup (the two are produced by
//!   independent code paths — drift means a wiring bug);
//! * the `resident_streams` gauge equals the metrics rollup under the
//!   sum-of-gauges contract;
//! * the core latency histograms are present, ingest was actually
//!   timed, and `observe_event_ns` timed exactly the events replayed
//!   live (`replayed_events`; events carried in from a `--restore`
//!   snapshot are counted by `restored_events` and never re-timed,
//!   while the counters above still cover the whole trace:
//!   `events_ingested == restored_events + replayed_events`);
//! * every histogram's quantiles are monotone (`p50 ≤ p90 ≤ p99 ≤
//!   max`) with `count`/`sum`/`mean`/`max` mutually consistent;
//! * every flight event is fully attributed (all fields present, kind
//!   is a known label);
//! * rebalance replays: the `rebalance_*` counters travel as a full
//!   set, moves imply closed epochs, and recorded `job_migrated`
//!   flight events never exceed the move counter.
//!
//! Prints one line per failure and exits non-zero on any; prints an
//! `OK` summary otherwise.

use mpp_experiments::json::{parse, Json};

/// Counters the engine injects from `ShardMetrics` into every
/// snapshot, cross-checked against the `metrics` section.
const COUNTERS: [&str; 9] = [
    "events_ingested",
    "predictions_served",
    "forecasts_served",
    "forecast_predictions",
    "hits",
    "misses",
    "abstentions",
    "period_churn",
    "evicted",
];

/// Histograms every telemetry-enabled replay must produce (queue-wait
/// and routing histograms are mode-dependent, so not required here).
const CORE_HISTOGRAMS: [&str; 3] = ["observe_batch_ns", "observe_event_ns", "forecast_ns"];

/// Flight-recorder kind labels the engine can emit.
const FLIGHT_KINDS: [&str; 8] = [
    "eviction",
    "backpressure_block",
    "backpressure_shed",
    "worker_gone",
    "period_churn",
    "job_migrated",
    "champion_swapped",
    "wal_truncated",
];

struct Checker {
    failures: u32,
    checks: u32,
}

impl Checker {
    fn claim(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.failures += 1;
            eprintln!("FAIL: {what}");
        }
    }

    fn u64_at(&mut self, doc: &Json, path: &[&str], what: &str) -> u64 {
        match doc.path(path).and_then(Json::as_u64) {
            Some(v) => {
                self.checks += 1;
                v
            }
            None => {
                self.checks += 1;
                self.failures += 1;
                eprintln!("FAIL: {what}: missing or non-integer {}", path.join("."));
                0
            }
        }
    }

    fn check_histogram(&mut self, name: &str, h: &Json, ctx: &str) {
        let what = format!("{ctx} histogram {name}");
        let count = self.u64_at(h, &["count"], &what);
        let sum = self.u64_at(h, &["sum"], &what);
        let max = self.u64_at(h, &["max"], &what);
        let mean = self.u64_at(h, &["mean"], &what);
        let p50 = self.u64_at(h, &["p50"], &what);
        let p90 = self.u64_at(h, &["p90"], &what);
        let p99 = self.u64_at(h, &["p99"], &what);
        self.claim(
            p50 <= p90 && p90 <= p99 && p99 <= max,
            &format!("{what}: quantiles not monotone (p50 {p50} p90 {p90} p99 {p99} max {max})"),
        );
        self.claim(
            mean <= max,
            &format!("{what}: mean {mean} exceeds max {max}"),
        );
        if count == 0 {
            self.claim(
                sum == 0 && max == 0 && p99 == 0,
                &format!("{what}: empty histogram reports non-zero stats"),
            );
        } else {
            self.claim(
                sum >= max,
                &format!("{what}: sum {sum} below max {max} with count {count}"),
            );
        }
    }

    fn check_entry(&mut self, entry: &Json) {
        let label = entry
            .path(&["config"])
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        self.claim(
            entry.get("config").and_then(Json::as_str).is_some(),
            &format!("{label}: missing config label"),
        );
        self.u64_at(entry, &["events"], &label);

        // Counter cross-check: telemetry vs the engine's own rollup.
        for name in COUNTERS {
            let metric = self.u64_at(entry, &["metrics", name], &label);
            let counter = self.u64_at(entry, &["telemetry", "counters", name], &label);
            self.claim(
                metric == counter,
                &format!("{label}: counter {name} {counter} != metrics rollup {metric}"),
            );
        }
        let resident = self.u64_at(entry, &["metrics", "resident_streams"], &label);
        let gauge = self.u64_at(entry, &["telemetry", "gauges", "resident_streams"], &label);
        self.claim(
            resident == gauge,
            &format!("{label}: resident_streams gauge {gauge} != metrics rollup {resident}"),
        );

        // Histograms: required set present, all monotone/consistent.
        let hists = entry.path(&["telemetry", "histograms"]);
        let members = hists.and_then(Json::members).unwrap_or(&[]);
        self.claim(
            hists.is_some(),
            &format!("{label}: missing telemetry.histograms"),
        );
        for name in CORE_HISTOGRAMS {
            self.claim(
                members.iter().any(|(k, _)| k == name),
                &format!("{label}: missing histogram {name}"),
            );
        }
        for (name, h) in members {
            self.check_histogram(name, h, &label);
        }
        let ingested = self.u64_at(entry, &["metrics", "events_ingested"], &label);
        // Restored runs split the trace: `restored_events` were carried
        // in from the snapshot (counters cover them, latency histograms
        // don't), `replayed_events` were ingested live.
        let restored = self.u64_at(entry, &["restored_events"], &label);
        let replayed = self.u64_at(entry, &["replayed_events"], &label);
        self.claim(
            ingested == restored + replayed,
            &format!(
                "{label}: events_ingested {ingested} != restored {restored} + replayed {replayed}"
            ),
        );
        let batch_count = entry
            .path(&["telemetry", "histograms", "observe_batch_ns", "count"])
            .and_then(Json::as_u64)
            .unwrap_or(0);
        self.claim(
            replayed == 0 || batch_count > 0,
            &format!("{label}: events were replayed but no batch was timed"),
        );
        let event_count = entry
            .path(&["telemetry", "histograms", "observe_event_ns", "count"])
            .and_then(Json::as_u64)
            .unwrap_or(0);
        self.claim(
            event_count == replayed,
            &format!(
                "{label}: observe_event_ns timed {event_count} events, {replayed} replayed live"
            ),
        );

        // Ensemble replays: the model-mix counters partition the served
        // events — every event has exactly one champion, so the
        // per-member championship counters must sum to the engine's own
        // ingest count, and the swap counter must ride along.
        let counters = entry
            .path(&["telemetry", "counters"])
            .and_then(Json::members)
            .unwrap_or(&[]);
        let mix: Vec<(&String, u64)> = counters
            .iter()
            .filter(|(k, _)| k.starts_with("model_mix_"))
            .map(|(k, v)| (k, v.as_u64().unwrap_or(0)))
            .collect();
        if !mix.is_empty() {
            let served: u64 = mix.iter().map(|&(_, v)| v).sum();
            self.claim(
                served == ingested,
                &format!(
                    "{label}: model_mix_* counters sum to {served}, \
                     {ingested} events ingested"
                ),
            );
            self.claim(
                counters.iter().any(|(k, _)| k == "champion_swaps"),
                &format!("{label}: model-mix counters without champion_swaps"),
            );
        }

        // Rebalance replays: the three policy counters travel together
        // (the layer exposes all of them whenever a policy is
        // configured), and a move implies at least one closed epoch.
        let rebalance: Vec<(&String, u64)> = counters
            .iter()
            .filter(|(k, _)| k.starts_with("rebalance_"))
            .map(|(k, v)| (k, v.as_u64().unwrap_or(0)))
            .collect();
        let mut moves = 0u64;
        if !rebalance.is_empty() {
            for name in ["rebalance_epochs", "rebalance_moves", "rebalance_skipped"] {
                self.claim(
                    rebalance.iter().any(|&(k, _)| k == name),
                    &format!("{label}: partial rebalance counter set (missing {name})"),
                );
            }
            let epochs = self.u64_at(
                entry,
                &["telemetry", "counters", "rebalance_epochs"],
                &label,
            );
            moves = self.u64_at(entry, &["telemetry", "counters", "rebalance_moves"], &label);
            self.claim(
                moves == 0 || epochs > 0,
                &format!("{label}: {moves} rebalance moves but no closed epoch"),
            );
        }

        // Flight events: fully attributed, known kinds, stamp-sorted.
        let flight = entry
            .path(&["telemetry", "flight"])
            .and_then(Json::elements)
            .unwrap_or(&[]);
        let mut prev_at = 0u64;
        for (i, ev) in flight.iter().enumerate() {
            let what = format!("{label} flight[{i}]");
            let at = self.u64_at(ev, &["at"], &what);
            for field in ["member", "shard", "job", "a", "b"] {
                self.u64_at(ev, &[field], &what);
            }
            let kind = ev.get("kind").and_then(Json::as_str).unwrap_or("");
            self.claim(
                FLIGHT_KINDS.contains(&kind),
                &format!("{what}: unknown kind \"{kind}\""),
            );
            self.claim(
                at >= prev_at,
                &format!("{what}: stamps out of order ({at} after {prev_at})"),
            );
            prev_at = at;
        }
        if !rebalance.is_empty() {
            // Every recorded migration was ordered by the rebalancer
            // (the flight ring may have dropped old events, never
            // invented them).
            let migrated = flight
                .iter()
                .filter(|ev| ev.get("kind").and_then(Json::as_str) == Some("job_migrated"))
                .count() as u64;
            self.claim(
                migrated <= moves,
                &format!("{label}: {migrated} job_migrated flights exceed {moves} rebalance moves"),
            );
        }
    }
}

fn main() {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: telemetry_check FILE.json [FILE.json ...]");
        std::process::exit(2);
    }
    let mut checker = Checker {
        failures: 0,
        checks: 0,
    };
    let mut entries = 0usize;
    for path in paths.drain(..) {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let doc = match parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                std::process::exit(1);
            }
        };
        let configs = doc.get("configs").and_then(Json::elements);
        match configs {
            Some(cs) if !cs.is_empty() => {
                entries += cs.len();
                for entry in cs {
                    checker.check_entry(entry);
                }
            }
            _ => {
                eprintln!("FAIL: {path}: no configs in document");
                std::process::exit(1);
            }
        }
    }
    if checker.failures > 0 {
        eprintln!(
            "telemetry_check: {} of {} checks failed",
            checker.failures, checker.checks
        );
        std::process::exit(1);
    }
    println!(
        "telemetry_check: OK ({} checks across {} config entr{})",
        checker.checks,
        entries,
        if entries == 1 { "y" } else { "ies" }
    );
}
