//! Order statistics, the tail-percentile rule and the compute lower bound.

use amos_hw::AcceleratorSpec;
use amos_ir::ComputeDef;

/// Percentiles a tail may be reported at, in thousandths, highest first.
const TAIL_LADDER: [u32; 4] = [999, 990, 900, 750];

/// Fewest samples a tail is ever reported for: below this a percentile with
/// ten samples beyond it would be no tail at all.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it, or `None` under [`MIN_TAIL_SAMPLES`] samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    // Exact in integers: n * (1000 - p) / 1000 samples lie beyond p.
    TAIL_LADDER
        .into_iter()
        .find(|&p| n as u64 * u64::from(1000 - p) >= 10_000)
        .map(|p| f64::from(p) / 10.0)
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Geometric mean of positive values. `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Multiply-accumulates of `def`: the product of its iteration extents, in
/// `f64` so that hostile extents cannot wrap.
pub fn macs(def: &ComputeDef) -> f64 {
    def.extents().iter().map(|&e| e as f64).product()
}

/// The compute lower bound on the cycles of any mapping of `def` onto
/// `accel`: every multiply-accumulate runs on the tensor units at their peak
/// rate.
pub fn cycle_lower_bound(def: &ComputeDef, accel: &AcceleratorSpec) -> f64 {
    macs(def) / accel.peak_tensor_ops_per_cycle()
}

/// True when `cycles` is a credible answer for work with lower bound
/// `bound`: finite, positive and at least the bound.
pub fn cycles_credible(cycles: f64, bound: f64) -> bool {
    cycles.is_finite() && cycles > 0.0 && cycles >= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tail_under_forty_samples() {
        for n in 0..MIN_TAIL_SAMPLES {
            assert_eq!(tail_percentile(n), None, "n = {n}");
        }
        assert_eq!(tail_percentile(40), Some(75.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in MIN_TAIL_SAMPLES..3_000 {
            let p = tail_percentile(n).expect("a tail from forty samples on");
            assert!(
                n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9,
                "n = {n}, p = {p}"
            );
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 75.0) - 3.25).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0; 5]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_by_hand() {
        // gmm:64x32x16 has 64 * 32 * 16 = 32768 MACs. The V100-like machine
        // runs 80 SMs x 4 tensor cores of a 16x16x16 (4096 MAC) intrinsic
        // once per 32-cycle initiation interval: 4096 / 32 * 320 = 40960
        // MACs per cycle, so the bound is 32768 / 40960 = 0.8 cycles.
        let def = amos_workloads::ops::gmm(64, 32, 16);
        let accel = amos_hw::catalog::v100();
        assert_eq!(macs(&def), 32_768.0);
        assert_eq!(accel.peak_tensor_ops_per_cycle(), 40_960.0);
        assert!((cycle_lower_bound(&def, &accel) - 0.8).abs() < 1e-12);
        // Extents whose i64 product wraps still give the true bound.
        let huge = amos_workloads::ops::gmm(4_000_000_000, 4_000_000_000, 4_000_000_000);
        assert_eq!(macs(&huge), 6.4e28);
    }

    #[test]
    fn credibility_rejects_non_finite_and_sub_bound_cycles() {
        assert!(cycles_credible(5.0, 4.0));
        assert!(!cycles_credible(3.0, 4.0));
        assert!(!cycles_credible(f64::INFINITY, 4.0));
        assert!(!cycles_credible(f64::NAN, 0.0));
        assert!(!cycles_credible(0.0, 0.0));
        assert!(!cycles_credible(-1.0e22, 1.0));
    }
}
