//! The traced run's per-layer metrics.
//!
//! Serving-path layers are read from the spans the traced window
//! recorded: `FederatedClient::observe_batch` on every other cycle and
//! the member's own `EngineClient::observe_batch` on the cycles between,
//! so both submit layers are timed under the same load, plus the
//! forecasts, restarts and checkpoints. The layers below them are timed
//! standalone, around the named public call, on the workload's own
//! observations (the first `Options::layer_events` of them): a
//! standalone `Shard` with the workload's configuration, a `StreamTable`
//! over the key sequence, `DpdPredictor`s and the challengers one stream
//! at a time, the observation-log writer and scanner, and snapshot
//! restore.

use crate::alloc::live_bytes;
use crate::reference::Capture;
use crate::serve::{Ctx, FORECAST_DEPTH};
use crate::spans::ROOT;
use crate::stats::median;
use mpp_core::dpd::{DpdConfig, DpdPredictor};
use mpp_core::predictors::{Predictor, PredictorKind};
use mpp_engine::oplog::{encode_frame, scan_log, WalWriter};
use mpp_engine::{
    DurabilityConfig, FlushPolicy, Observation, PersistentEngine, Shard, StreamKey, StreamTable,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

type Metric = (&'static str, f64, &'static str);

/// One batch of the standalone prefix, with its cycle index.
struct Batch<'a> {
    cycle: u32,
    events: &'a [Observation],
}

fn prefix_batches<'a>(ctx: &Ctx<'a>) -> Vec<Batch<'a>> {
    let limit = ctx.opts.layer_events.min(ctx.inputs.events.len());
    let mut out = Vec::new();
    for (ci, c) in ctx.cycles.iter().enumerate() {
        if c.start >= limit {
            break;
        }
        let mut at = c.start;
        while at < c.end {
            let end = (at + ctx.opts.batch).min(c.end);
            out.push(Batch {
                cycle: ci as u32,
                events: &ctx.inputs.events[at..end],
            });
            at = end;
        }
    }
    out
}

/// Measures every per-layer metric (`nasbench.synth_s` is filled in
/// once every set-up has run). `diag` receives the waterfall and the
/// reference rows (both log policies).
pub fn measure(
    ctx: &mut Ctx<'_>,
    passes: &[Capture],
    diag: &mut Vec<(String, f64)>,
) -> Vec<Metric> {
    let opts = ctx.opts;
    let w = opts.workload;
    let dpd_cfg = DpdConfig::default();
    let cfg = opts.member_config(None);
    let batches = prefix_batches(ctx);
    let prefix_events: usize = batches.iter().map(|b| b.events.len()).sum();
    let pe = prefix_events as f64;

    // Serving path, from the traced window's spans: each submit layer
    // per observation of the cycles it served.
    let window_events: u64 = ctx.rec.cycles.iter().map(|c| u64::from(c.0)).sum();
    let we = window_events as f64;
    let member_events = ctx.rec.member_events as f64;
    let (fed_ns, _) = ctx.spans.total("federation.observe_batch");
    let (p_ns, _) = ctx.spans.total("persistent.observe_batch");
    let (part_ns, _) = ctx.spans.total("partition");
    let fed_submit = fed_ns as f64 / (we - member_events).max(1.0);
    let persistent_submit = p_ns as f64 / member_events.max(1.0);
    let legs_per_batch = ctx.rec.member_legs as f64 / ctx.rec.member_batches.max(1) as f64;
    let wait_us: f64 = ctx
        .rec
        .waits
        .iter()
        .zip(&ctx.rec.wait_batches)
        .map(|(&ns, &b)| ns as f64 / 1e3 / f64::from(b.max(1)))
        .sum::<f64>()
        / ctx.rec.waits.len().max(1) as f64;
    let fast_us: Vec<f64> = ctx
        .rec
        .forecasts
        .iter()
        .zip(&ctx.rec.first)
        .filter(|(_, &first)| !first)
        .map(|(&ns, _)| ns as f64 / 1e3)
        .collect();
    let shard_of = std::mem::take(&mut ctx.shard_of);

    // shard: standalone shards fed the per-shard legs.
    let nshards = cfg.shards;
    let mut shards: Vec<Shard> = (0..nshards)
        .map(|_| Shard::with_ensemble(dpd_cfg.clone(), None, cfg.ensemble.clone()))
        .collect();
    let mut shard_legs: Vec<Vec<Observation>> = vec![Vec::new(); nshards];
    let mut base = 0u64;
    for b in &batches {
        shard_legs.iter_mut().for_each(Vec::clear);
        for obs in b.events {
            shard_legs[shard_of[&(obs.key.job, obs.key.rank)]].push(*obs);
        }
        for (s, leg) in shard_legs.iter().enumerate() {
            if leg.is_empty() {
                continue;
            }
            let t = Instant::now();
            shards[s].observe_all_at(leg, base);
            ctx.spans
                .record("shard.observe", t, Instant::now(), ROOT, b.cycle);
            base += leg.len() as u64;
        }
    }
    let (s_ns, _) = ctx.spans.total("shard.observe");
    let shard_apply = s_ns as f64 / pe;
    let streams: usize = shards.iter().map(Shard::stream_count).sum();
    let job_ranks = ctx.inputs.job_ranks();
    const ROUNDS: usize = 20;
    let mut fc = Vec::with_capacity(FORECAST_DEPTH);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for &(j, r) in &job_ranks {
            let s = shard_of[&(j, r)];
            shards[s].forecast_at(j, r, FORECAST_DEPTH, base, &mut fc);
            black_box(&fc);
        }
    }
    let shard_fc_ns = t.elapsed().as_nanos() as f64 / (ROUNDS * job_ranks.len()) as f64;
    ctx.spans
        .record("shard.forecast_at", t, Instant::now(), ROOT, u32::MAX);
    drop(shards);

    // stream_table: the key sequence, get then touch or insert.
    let mut table: StreamTable<u32> = StreamTable::new();
    let mut at = 0u64;
    for b in &batches {
        let t = Instant::now();
        for obs in b.events {
            at += 1;
            match table.get(obs.key) {
                Some(id) => table.touch(id, at),
                None => {
                    table.insert(obs.key, at, 0);
                }
            }
        }
        ctx.spans
            .record("stream_table.lookup", t, Instant::now(), ROOT, b.cycle);
    }
    black_box(&table);
    drop(table);
    let (st_ns, _) = ctx.spans.total("stream_table.lookup");
    let lookup = st_ns as f64 / pe;

    // dpd and the challengers, one stream at a time.
    let mut index: HashMap<StreamKey, usize> = HashMap::new();
    let mut values: Vec<Vec<u64>> = Vec::new();
    for b in &batches {
        for obs in b.events {
            let i = *index.entry(obs.key).or_insert_with(|| {
                values.push(Vec::new());
                values.len() - 1
            });
            values[i].push(obs.value);
        }
    }
    let before = live_bytes();
    let mut dpds: Vec<DpdPredictor> = values
        .iter()
        .map(|_| DpdPredictor::new(dpd_cfg.clone()))
        .collect();
    let t = Instant::now();
    for (p, vs) in dpds.iter_mut().zip(&values) {
        for &v in vs {
            p.observe(v);
            black_box(p.predict(1));
        }
    }
    ctx.spans
        .record("dpd.observe", t, Instant::now(), ROOT, u32::MAX);
    let dpd_observe = t.elapsed().as_nanos() as f64 / pe;
    let dpd_bytes = live_bytes().saturating_sub(before) as f64 / values.len().max(1) as f64;
    let mut col = Vec::with_capacity(FORECAST_DEPTH);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for p in &dpds {
            p.predict_next_into(FORECAST_DEPTH, &mut col);
            black_box(&col);
        }
    }
    let dpd_predict = t.elapsed().as_nanos() as f64 / (ROUNDS * dpds.len()) as f64;
    ctx.spans
        .record("dpd.predict_next_into", t, Instant::now(), ROOT, u32::MAX);
    drop(dpds);
    let roster = mpp_engine::EnsembleConfig::standard().challengers;
    let before = live_bytes();
    let mut challengers: Vec<Vec<Box<dyn Predictor + Send>>> = values
        .iter()
        .map(|_| {
            roster
                .iter()
                .map(|k: &PredictorKind| k.build(&dpd_cfg))
                .collect()
        })
        .collect();
    let t = Instant::now();
    for (ms, vs) in challengers.iter_mut().zip(&values) {
        for &v in vs {
            for m in ms.iter_mut() {
                m.observe(v);
                black_box(m.predict(1));
            }
        }
    }
    ctx.spans
        .record("predictors.observe", t, Instant::now(), ROOT, u32::MAX);
    let challenger_ns = t.elapsed().as_nanos() as f64 / pe;
    let challenger_bytes = live_bytes().saturating_sub(before) as f64 / values.len().max(1) as f64;
    drop(challengers);

    // oplog: encode, append under both flush policies, sync, scan.
    let mut buf = Vec::new();
    let mut base = 0u64;
    for b in &batches {
        buf.clear();
        let t = Instant::now();
        encode_frame(&mut buf, base, b.events);
        ctx.spans
            .record("oplog.encode_frame", t, Instant::now(), ROOT, b.cycle);
        black_box(&buf);
        base += b.events.len() as u64;
    }
    let (enc_ns, _) = ctx.spans.total("oplog.encode_frame");
    let every_dir = opts
        .out_dir
        .join(format!("{}-{}-wal-every", w.name(), std::process::id()));
    let rotate_dir = opts
        .out_dir
        .join(format!("{}-{}-wal-rotate", w.name(), std::process::id()));
    let mut every =
        WalWriter::open(DurabilityConfig::new(&every_dir).with_flush(FlushPolicy::EveryBatch))
            .expect("cannot open the log directory");
    let mut rotate =
        WalWriter::open(DurabilityConfig::new(&rotate_dir).with_flush(FlushPolicy::OnRotate))
            .expect("cannot open the log directory");
    let (mut bytes, mut base) = (0u64, 0u64);
    let mut every_us = Vec::new();
    let mut rotate_us = Vec::new();
    let mut sync_us = Vec::new();
    for (i, b) in batches.iter().enumerate() {
        let t = Instant::now();
        let stats = every.append(base, b.events).expect("log append failed");
        let end = Instant::now();
        ctx.spans.record("oplog.append", t, end, ROOT, b.cycle);
        every_us.push((end - t).as_secs_f64() * 1e6);
        bytes += stats.bytes;
        let t = Instant::now();
        rotate.append(base, b.events).expect("log append failed");
        rotate_us.push(t.elapsed().as_secs_f64() * 1e6);
        base += b.events.len() as u64;
        if batches.get(i + 1).is_none_or(|n| n.cycle != b.cycle) {
            let t = Instant::now();
            rotate.sync().expect("log sync failed");
            let end = Instant::now();
            ctx.spans.record("oplog.sync", t, end, ROOT, b.cycle);
            sync_us.push((end - t).as_secs_f64() * 1e6);
        }
    }
    drop(every);
    drop(rotate);
    let t = Instant::now();
    let scan = scan_log(&every_dir).expect("log scan failed");
    let scan_ns = t.elapsed().as_nanos() as f64 / pe;
    ctx.spans
        .record("oplog.scan_log", t, Instant::now(), ROOT, u32::MAX);
    let scanned: usize = scan.frames.iter().map(|f| f.obs.len()).sum();
    if scanned != prefix_events {
        ctx.rec.failed += 1;
        ctx.rec.failures.push(format!(
            "scan_log read {scanned} of {prefix_events} appended events"
        ));
    }
    ctx.rec.checked += 1;
    drop(scan);
    let _ = std::fs::remove_dir_all(&every_dir);
    let _ = std::fs::remove_dir_all(&rotate_dir);

    // snapshot: encode from the window, restore standalone.
    let enc = ["snapshot.encode", "snapshot.checkpoint"]
        .iter()
        .map(|n| ctx.spans.total(n))
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    let snap = &ctx.snapshot;
    let mut restore_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let eng = PersistentEngine::restore(cfg.clone(), snap).expect("snapshot restores");
        let end = Instant::now();
        ctx.spans.record("snapshot.restore", t, end, ROOT, u32::MAX);
        restore_ms.push((end - t).as_secs_f64() * 1e3);
        drop(eng);
    }
    let snap_streams = passes[0]
        .jobs
        .iter()
        .map(|(_, m)| m.resident_streams)
        .sum::<u64>()
        .max(1);

    // The waterfall: where the traced window's cycle time went, per
    // observation. The spans and the generator's own time partition
    // every cycle, so the rows add up to the cycle cost by construction.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let cycle_ns: u64 = ctx.rec.cycles.iter().map(|c| c.1).sum();
    let (fc_ns, _) = ctx.spans.total("forecast");
    let (first_ns, _) = ctx.spans.total("forecast.first");
    let (sync_ns, _) = ctx.spans.total("sync_wal");
    let (ckpt_ns, _) = ctx.spans.total("snapshot.checkpoint");
    let rows = [
        ("generator_self", ctx.spans.self_time("cycle") as f64 / we),
        ("submit_federation", fed_ns as f64 / we),
        ("submit_member", (p_ns + part_ns) as f64 / we),
        ("queue_wait_and_apply", first_ns as f64 / we),
        ("replan_forecasts", fc_ns as f64 / we),
        ("sync_wal", sync_ns as f64 / we),
        ("checkpoint", ckpt_ns as f64 / we),
    ];
    for (name, v) in rows {
        diag.push((format!("waterfall.{name}_ns_per_event"), v));
    }
    diag.push(("waterfall.cycle_ns_per_event".into(), cycle_ns as f64 / we));
    diag.push((
        "federation.self_ns_per_event".into(),
        fed_submit - persistent_submit,
    ));
    diag.push(("waterfall.apply.shard_ns_per_event".into(), shard_apply));
    diag.push(("waterfall.apply.stream_table_ns_per_event".into(), lookup));
    diag.push(("waterfall.apply.dpd_ns_per_event".into(), dpd_observe));
    if cfg.ensemble.enabled() {
        diag.push((
            "waterfall.apply.challengers_ns_per_event".into(),
            challenger_ns,
        ));
    }
    diag.push((
        "oplog.append_us_per_batch.on_rotate".into(),
        mean(&rotate_us),
    ));

    let path = opts
        .out_dir
        .join(format!("spans-{}-{}.json", w.name(), opts.seed));
    if let Err(e) = ctx.spans.write_json(&path) {
        eprintln!("servebench: cannot write {}: {e}", path.display());
    }

    vec![
        ("nasbench.synth_s", f64::NAN, "s"),
        ("federation.submit_ns_per_event", fed_submit, "ns"),
        ("federation.legs_per_batch", legs_per_batch, "count"),
        ("persistent.submit_ns_per_event", persistent_submit, "ns"),
        ("persistent.wait_us_per_batch", wait_us, "us"),
        (
            "persistent.roundtrip_us",
            median(&fast_us) - shard_fc_ns / 1e3,
            "us",
        ),
        ("shard.apply_ns_per_event", shard_apply, "ns"),
        ("shard.streams", streams as f64, "count"),
        ("shard.forecast_ns_per_call", shard_fc_ns, "ns"),
        ("stream_table.lookup_ns_per_event", lookup, "ns"),
        ("dpd.observe_ns_per_event", dpd_observe, "ns"),
        ("dpd.predict_ns_per_call", dpd_predict, "ns"),
        ("dpd.bytes_per_stream", dpd_bytes, "bytes"),
        ("predictors.challenger_ns_per_event", challenger_ns, "ns"),
        ("predictors.bytes_per_stream", challenger_bytes, "bytes"),
        ("oplog.encode_ns_per_event", enc_ns as f64 / pe, "ns"),
        ("oplog.append_us_per_batch", mean(&every_us), "us"),
        ("oplog.sync_us", mean(&sync_us), "us"),
        ("oplog.bytes_per_event", bytes as f64 / pe, "bytes"),
        ("oplog.scan_ns_per_event", scan_ns, "ns"),
        (
            "snapshot.encode_ms",
            enc.0 as f64 / 1e6 / enc.1.max(1) as f64,
            "ms",
        ),
        ("snapshot.restore_ms", median(&restore_ms), "ms"),
        (
            "snapshot.bytes_per_stream",
            snap.len() as f64 / snap_streams as f64,
            "bytes",
        ),
    ]
}
