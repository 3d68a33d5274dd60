//! Order statistics and the host-speed reading.

use std::hint::black_box;
use std::time::Instant;

/// The `q` quantile (0 ≤ q ≤ 1) of `xs`, linearly interpolated between
/// order statistics; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A host-speed reading independent of the engine: nanoseconds per
/// step of a fixed dependent ALU loop and of a fixed random pointer
/// chase over 2 MiB (the size of one core's L2 here). A run whose
/// metrics stand out can be traced to the host by these two numbers.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    /// ns per multiply-add of a dependent chain.
    pub alu_ns: f64,
    /// ns per load of a dependent random walk over 2 MiB.
    pub mem_ns: f64,
}

/// Takes the host-speed reading (about 0.2 s).
pub fn host_speed() -> HostSpeed {
    const ALU_STEPS: u64 = 40_000_000;
    let t = Instant::now();
    let mut x = black_box(1u64);
    for i in 0..ALU_STEPS {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
    }
    black_box(x);
    let alu_ns = t.elapsed().as_nanos() as f64 / ALU_STEPS as f64;

    // One random cycle through 2 MiB of slots, so every load depends
    // on the previous one.
    const SLOTS: usize = (2 << 20) / 8;
    const CHASE_STEPS: usize = 4_000_000;
    let mut rng = crate::inputs::Rng::new(0x2003);
    let mut order: Vec<usize> = (0..SLOTS).collect();
    rng.shuffle(&mut order);
    let mut next = vec![0usize; SLOTS];
    for i in 0..SLOTS {
        next[order[i]] = order[(i + 1) % SLOTS];
    }
    let t = Instant::now();
    let mut p = black_box(0usize);
    for _ in 0..CHASE_STEPS {
        p = next[p];
    }
    black_box(p);
    let mem_ns = t.elapsed().as_nanos() as f64 / CHASE_STEPS as f64;
    HostSpeed { alu_ns, mem_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.125), 1.5);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
