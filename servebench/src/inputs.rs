//! Workload inputs: simulated NAS traces flattened into the observation
//! sequence one generating thread feeds the engine.
//!
//! The seed decides every input property that may vary: each tenant's
//! job id, its simulated world's seed, the order in which ranks'
//! deliveries are interleaved, and the proportional interleave of
//! tenants. Each rank's own delivery order is the trace's logical order,
//! so every stream's symbol sequence is the skeleton's.

use mpp_engine::{JobId, Observation, RankId, StreamKey, StreamKind};
use mpp_nasbench::{run_config, BenchmarkConfig};
use std::time::Instant;

/// SplitMix64: a small, seedable generator for input decisions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// One served MPI job: a simulated configuration under its own job id.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Paper label of the configuration, e.g. `lu.32`.
    pub label: String,
    /// Job id the tenant's streams live under.
    pub job: JobId,
    /// Number of ranks (each has sender, size and tag streams).
    pub ranks: RankId,
    /// Observations of this tenant in the sequence.
    pub events: u64,
}

/// The observation sequence of one workload plus what produced it.
#[derive(Debug)]
pub struct Inputs {
    /// Every observation, in submission order.
    pub events: Vec<Observation>,
    /// The tenants, in configuration order.
    pub tenants: Vec<Tenant>,
    /// Seconds spent simulating, flattening and interleaving.
    pub synth_s: f64,
}

impl Inputs {
    /// Index of `job` in `tenants`.
    pub fn tenant_of(&self, job: JobId) -> usize {
        self.tenants
            .iter()
            .position(|t| t.job == job)
            .expect("every job in the sequence is a tenant")
    }

    /// Every `(job, rank)` of every tenant, in tenant then rank order.
    pub fn job_ranks(&self) -> Vec<(JobId, RankId)> {
        self.tenants
            .iter()
            .flat_map(|t| (0..t.ranks).map(move |r| (t.job, r)))
            .collect()
    }

    /// Every stream key, in tenant, rank, kind order.
    pub fn streams(&self) -> Vec<StreamKey> {
        self.job_ranks()
            .into_iter()
            .flat_map(|(job, rank)| StreamKind::ALL.map(|k| StreamKey::for_job(job, rank, k)))
            .collect()
    }
}

/// Simulates `configs` as tenants of one engine and interleaves their
/// deliveries in proportion to their lengths.
pub fn synthesize(configs: &[BenchmarkConfig], seed: u64) -> Inputs {
    let t0 = Instant::now();
    let mut rng = Rng::new(seed);
    let mut tenants = Vec::with_capacity(configs.len());
    let mut flat = Vec::with_capacity(configs.len());
    for cfg in configs {
        let job = loop {
            let j = rng.next_u64() as JobId;
            if !tenants.iter().any(|t: &Tenant| t.job == j) {
                break j;
            }
        };
        let trace = run_config(cfg, rng.next_u64());
        let events = flatten(&trace, job, &mut rng);
        tenants.push(Tenant {
            label: cfg.label(),
            job,
            ranks: cfg.procs as RankId,
            events: events.len() as u64,
        });
        flat.push(events);
    }
    let events = interleave(flat, &mut rng);
    Inputs {
        events,
        tenants,
        synth_s: t0.elapsed().as_secs_f64(),
    }
}

/// One trace as observations of `job`: each delivery becomes its
/// sender, size and tag observations, and deliveries of different ranks
/// interleave in rounds, each round visiting the ranks that still have
/// deliveries in a seeded order.
fn flatten(trace: &mpp_mpisim::Trace, job: JobId, rng: &mut Rng) -> Vec<Observation> {
    let n = trace.nprocs();
    let total: usize = (0..n).map(|r| trace.receives_of(r).len()).sum();
    let mut out = Vec::with_capacity(3 * total);
    let mut cursors = vec![0usize; n];
    let mut live: Vec<usize> = (0..n)
        .filter(|&r| !trace.receives_of(r).is_empty())
        .collect();
    while !live.is_empty() {
        rng.shuffle(&mut live);
        for &rank in &live {
            let e = &trace.receives_of(rank)[cursors[rank]];
            cursors[rank] += 1;
            let r = rank as RankId;
            out.push(Observation::new(
                StreamKey::for_job(job, r, StreamKind::Sender),
                e.src as u64,
            ));
            out.push(Observation::new(
                StreamKey::for_job(job, r, StreamKind::Size),
                e.bytes,
            ));
            out.push(Observation::new(
                StreamKey::for_job(job, r, StreamKind::Tag),
                u64::from(e.tag),
            ));
        }
        live.retain(|&r| cursors[r] < trace.receives_of(r).len());
    }
    out
}

/// Merges tenants delivery by delivery in proportion to their lengths:
/// the next delivery comes from the tenant whose next delivery sits
/// earliest on its own `[0, 1)` time line, with seeded phase offsets.
fn interleave(tenants: Vec<Vec<Observation>>, rng: &mut Rng) -> Vec<Observation> {
    if tenants.len() == 1 {
        return tenants.into_iter().next().expect("one tenant");
    }
    let total: usize = tenants.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let lens: Vec<f64> = tenants.iter().map(|t| (t.len() / 3) as f64).collect();
    let phase: Vec<f64> = tenants.iter().map(|_| rng.unit()).collect();
    let mut next = vec![0usize; tenants.len()];
    while out.len() < total {
        let mut best = usize::MAX;
        let mut best_at = f64::INFINITY;
        for (t, events) in tenants.iter().enumerate() {
            if next[t] * 3 >= events.len() {
                continue;
            }
            let at = (next[t] as f64 + phase[t]) / lens[t];
            if at < best_at {
                best_at = at;
                best = t;
            }
        }
        let start = next[best] * 3;
        out.extend_from_slice(&tenants[best][start..start + 3]);
        next[best] += 1;
    }
    out
}
