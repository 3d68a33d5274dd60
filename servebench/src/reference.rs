//! Computations made apart from the engine, and the checks that hold
//! the engine's outputs against them.
//!
//! The reference drives one [`DpdPredictor`] per stream, fed one stream
//! at a time by the benchmark: the paper's predictor, with none of the
//! engine's interning, sharding, queues or snapshots. Equality holds
//! because interning is injective and the DPD compares symbols only for
//! equality.

use crate::inputs::Inputs;
use mpp_core::dpd::{DpdConfig, DpdPredictor};
use mpp_core::predictors::Predictor;
use mpp_engine::{JobId, JobMetrics, ModelStats, StreamKey, StreamKind};
use std::collections::VecDeque;

/// Forecast of one `(job, rank)`: `depth` (sender, size) pairs.
pub type Forecast = Vec<(Option<u64>, Option<u64>)>;

/// `+1` scoring counts of one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Observations ingested.
    pub events: u64,
    /// Standing `+1` forecasts that matched the arrival.
    pub hits: u64,
    /// Standing `+1` forecasts that did not match.
    pub misses: u64,
    /// Arrivals with no standing forecast.
    pub abstentions: u64,
}

impl Counts {
    /// The engine's job rollup in the same shape.
    pub fn of_job(m: &JobMetrics) -> Self {
        Counts {
            events: m.events_ingested,
            hits: m.hits,
            misses: m.misses,
            abstentions: m.abstentions,
        }
    }

    /// One ensemble member's counts, with the job's event total.
    pub fn of_model(m: &ModelStats, events: u64) -> Self {
        Counts {
            events,
            hits: m.hits,
            misses: m.misses,
            abstentions: m.abstentions,
        }
    }
}

/// What the engine's outputs must equal after ingesting a whole pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Per tenant, in `Inputs::tenants` order.
    pub jobs: Vec<(JobId, Counts)>,
    /// Per `(job, rank)`, in `Inputs::job_ranks` order.
    pub forecasts: Vec<Forecast>,
    /// Per stream, in `Inputs::streams` order: the last
    /// `window + max_lag` observations, oldest first.
    pub windows: Vec<Vec<u64>>,
    /// The same, just before observation `probe` of the sequence.
    pub probe_windows: Vec<Vec<u64>>,
}

struct RefStream {
    dpd: DpdPredictor,
    pending: Option<u64>,
    recent: VecDeque<u64>,
    counts: Counts,
}

/// Dense index of every stream: tenant offset + rank × 3 + kind.
struct StreamIndex {
    jobs: Vec<JobId>,
    base: Vec<usize>,
    total: usize,
}

impl StreamIndex {
    fn new(inputs: &Inputs) -> Self {
        let mut base = Vec::with_capacity(inputs.tenants.len());
        let mut total = 0usize;
        for t in &inputs.tenants {
            base.push(total);
            total += 3 * t.ranks as usize;
        }
        StreamIndex {
            jobs: inputs.tenants.iter().map(|t| t.job).collect(),
            base,
            total,
        }
    }

    fn of(&self, key: StreamKey, last: &mut (JobId, usize)) -> usize {
        if key.job != last.0 {
            let t = self
                .jobs
                .iter()
                .position(|&j| j == key.job)
                .expect("every job in the sequence is a tenant");
            *last = (key.job, t);
        }
        self.base[last.1] + 3 * key.rank as usize + key.kind.index()
    }
}

/// Runs the per-stream reference over the whole sequence, on two
/// threads that split the streams between them, keeping each stream's
/// recent observations at the end and just before observation `probe`.
pub fn compute(inputs: &Inputs, cfg: &DpdConfig, depth: usize, probe: usize) -> Reference {
    let index = StreamIndex::new(inputs);
    let keep = cfg.window + cfg.max_lag;
    const THREADS: usize = 2;
    type Part = (Vec<Option<RefStream>>, Vec<Option<Vec<u64>>>);
    let parts: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let index = &index;
                s.spawn(move || {
                    let mut streams: Vec<Option<RefStream>> =
                        (0..index.total).map(|_| None).collect();
                    let mut at_probe: Vec<Option<Vec<u64>>> = Vec::new();
                    let mut last = (JobId::MAX, 0usize);
                    for (e, obs) in inputs.events.iter().enumerate() {
                        if e == probe {
                            at_probe = recent_of(&streams);
                        }
                        let i = index.of(obs.key, &mut last);
                        if i % THREADS != tid {
                            continue;
                        }
                        let st = streams[i].get_or_insert_with(|| RefStream {
                            dpd: DpdPredictor::new(cfg.clone()),
                            pending: None,
                            recent: VecDeque::with_capacity(keep),
                            counts: Counts::default(),
                        });
                        match st.pending {
                            Some(p) if p == obs.value => st.counts.hits += 1,
                            Some(_) => st.counts.misses += 1,
                            None => st.counts.abstentions += 1,
                        }
                        st.counts.events += 1;
                        st.dpd.observe(obs.value);
                        st.pending = st.dpd.predict(1);
                        if st.recent.len() == keep {
                            st.recent.pop_front();
                        }
                        st.recent.push_back(obs.value);
                    }
                    if probe >= inputs.events.len() {
                        at_probe = recent_of(&streams);
                    }
                    (streams, at_probe)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let stream = |i: usize| parts[i % THREADS].0[i].as_ref();
    let mut jobs = Vec::with_capacity(inputs.tenants.len());
    let mut forecasts = Vec::new();
    let mut windows = Vec::with_capacity(index.total);
    let probe_windows = (0..index.total)
        .map(|i| parts[i % THREADS].1[i].clone().unwrap_or_default())
        .collect();
    let mut col = Vec::with_capacity(depth);
    let predict = |i: usize, col: &mut Vec<Option<u64>>| match stream(i) {
        Some(st) => st.dpd.predict_next_into(depth, col),
        None => {
            col.clear();
            col.resize(depth, None);
        }
    };
    for (t, tenant) in inputs.tenants.iter().enumerate() {
        let mut c = Counts::default();
        for rank in 0..tenant.ranks as usize {
            let first = index.base[t] + 3 * rank;
            for i in first..first + 3 {
                if let Some(st) = stream(i) {
                    c.events += st.counts.events;
                    c.hits += st.counts.hits;
                    c.misses += st.counts.misses;
                    c.abstentions += st.counts.abstentions;
                }
                windows.push(
                    stream(i).map_or_else(Vec::new, |st| st.recent.iter().copied().collect()),
                );
            }
            predict(first + StreamKind::Sender.index(), &mut col);
            let senders = col.clone();
            predict(first + StreamKind::Size.index(), &mut col);
            forecasts.push(senders.into_iter().zip(col.iter().copied()).collect());
        }
        jobs.push((tenant.job, c));
    }
    Reference {
        jobs,
        forecasts,
        windows,
        probe_windows,
    }
}

fn recent_of(streams: &[Option<RefStream>]) -> Vec<Option<Vec<u64>>> {
    streams
        .iter()
        .map(|s| s.as_ref().map(|st| st.recent.iter().copied().collect()))
        .collect()
}

/// The paper's equation (1) at lag `m` over the last `window`
/// comparisons the kept observations allow: `d(m) = 0` exactly when
/// every observation equals the one `m` before it.
pub fn equation_one_holds(recent: &[u64], m: usize, window: usize) -> bool {
    if m == 0 || m >= recent.len() {
        return false;
    }
    let n = recent.len();
    let comparisons = window.min(n - m);
    (0..comparisons).all(|i| recent[n - 1 - i] == recent[n - 1 - i - m])
}

/// Engine outputs captured at the end of a pass (or after a restart).
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// The engine's per-job rollups, ascending by job.
    pub jobs: Vec<(JobId, JobMetrics)>,
    /// Per-job ensemble member stats (empty without an ensemble).
    pub models: Vec<(JobId, Vec<ModelStats>)>,
    /// Forecast per `(job, rank)`, in `Inputs::job_ranks` order.
    pub forecasts: Vec<Forecast>,
    /// `period_of` per stream, in `Inputs::streams` order.
    pub periods: Vec<Option<usize>>,
    /// `period_of` per stream at the pass's probe cycle (a third of the
    /// way through); empty after a restart.
    pub probe_periods: Vec<Option<usize>>,
}

impl Capture {
    /// The observation-driven counters, which a restart must keep
    /// (forecast counters move with the queries a check itself makes).
    pub fn scoring(&self) -> Vec<(JobId, [u64; 7])> {
        self.jobs
            .iter()
            .map(|&(j, m)| {
                let s = [
                    m.events_ingested,
                    m.hits,
                    m.misses,
                    m.abstentions,
                    m.period_churn,
                    m.resident_streams,
                    m.evicted,
                ];
                (j, s)
            })
            .collect()
    }
}

/// Checks one pass's capture against the reference and the method's
/// properties. Returns one message per failed check; `checked` counts
/// the checks made.
pub fn check_pass(
    inputs: &Inputs,
    reference: &Reference,
    got: &Capture,
    dpd_cfg: &DpdConfig,
    ensemble: bool,
    checked: &mut u64,
) -> Vec<String> {
    let mut fails = Vec::new();
    let mut check = |ok: bool, msg: String| {
        *checked += 1;
        if !ok {
            fails.push(msg);
        }
    };
    for (t, tenant) in inputs.tenants.iter().enumerate() {
        let (job, want) = reference.jobs[t];
        let engine = got
            .jobs
            .iter()
            .find(|(j, _)| *j == job)
            .map(|(_, m)| *m)
            .unwrap_or_default();
        check(
            engine.events_ingested == tenant.events,
            format!(
                "{}: ingested {} of {} submitted observations",
                tenant.label, engine.events_ingested, tenant.events
            ),
        );
        if ensemble {
            let models = got
                .models
                .iter()
                .find(|(j, _)| *j == job)
                .map(|(_, m)| m.as_slice())
                .unwrap_or_default();
            let champion: u64 = models.iter().map(|m| m.champion_events).sum();
            check(
                champion == engine.events_ingested,
                format!(
                    "{}: champion_events sum to {champion}, ingested {}",
                    tenant.label, engine.events_ingested
                ),
            );
            let dpd = models
                .first()
                .map(|m| Counts::of_model(m, engine.events_ingested));
            check(
                dpd == Some(want),
                format!("{}: DPD member {dpd:?}, reference {want:?}", tenant.label),
            );
        } else {
            let counts = Counts::of_job(&engine);
            check(
                counts == want,
                format!("{}: engine {counts:?}, reference {want:?}", tenant.label),
            );
        }
    }
    if !ensemble {
        let mismatched = got
            .forecasts
            .iter()
            .zip(&reference.forecasts)
            .filter(|(a, b)| a != b)
            .count();
        check(
            got.forecasts.len() == reference.forecasts.len() && mismatched == 0,
            format!("{mismatched} (job, rank) forecasts differ from the reference"),
        );
    }
    for (periods, windows, at) in [
        (&got.probe_periods, &reference.probe_windows, "mid-pass"),
        (&got.periods, &reference.windows, "end of pass"),
    ] {
        let locked: Vec<(usize, usize)> = periods
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|m| (i, m)))
            .collect();
        let broken = locked
            .iter()
            .filter(|&&(i, m)| !equation_one_holds(&windows[i], m, dpd_cfg.window))
            .count();
        // Mid-pass, some stream must be locked, or the check is vacuous.
        let vacuous = at == "mid-pass" && locked.is_empty();
        check(
            broken == 0 && !vacuous,
            format!(
                "{at}: equation (1) fails on {broken} of {} locked streams",
                locked.len()
            ),
        );
    }
    fails
}

/// Checks a restarted engine against the capture taken before the
/// restart: counters, ensemble stats, forecasts and periods.
pub fn check_restart(before: &Capture, after: &Capture, checked: &mut u64) -> Vec<String> {
    let mut fails = Vec::new();
    let mut check = |ok: bool, msg: &str| {
        *checked += 1;
        if !ok {
            fails.push(msg.to_string());
        }
    };
    check(
        before.scoring() == after.scoring(),
        "restart changed job counters",
    );
    check(
        before.models == after.models,
        "restart changed ensemble stats",
    );
    check(
        before.forecasts == after.forecasts,
        "restart changed forecasts",
    );
    check(before.periods == after.periods, "restart changed periods");
    fails
}

/// [`check_restart`] for a crash recovery, plus: the recovered engine
/// holds exactly the events `sync_wal` acknowledged before the crash.
pub fn check_recovery(
    before: &Capture,
    after: &Capture,
    recovered_events: u64,
    acked_events: u64,
    checked: &mut u64,
) -> Vec<String> {
    let mut fails = check_restart(before, after, checked);
    *checked += 1;
    if recovered_events != acked_events {
        fails.push(format!(
            "recovered {recovered_events} events, sync_wal acknowledged {acked_events}"
        ));
    }
    fails
}
