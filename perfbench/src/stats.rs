//! Order statistics and seed derivation.

/// The `p`-th percentile (0..=100) of `v` by nearest rank; 0 when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v`; 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// The highest whole percentile that leaves at least ten of `n` samples
/// beyond it (never below the median).
pub fn tail_percentile(n: usize) -> f64 {
    let p = (100.0 * (1.0 - 10.0 / n.max(1) as f64)).floor();
    p.clamp(50.0, 99.0)
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// A well-mixed 64-bit value from (`seed`, `i`) (SplitMix64 finalizer), so
/// per-unit seeds from neighbouring workload seeds do not overlap.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples() {
        assert_eq!(tail_percentile(72), 86.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(5), 50.0);
        for n in [20usize, 72, 150, 600, 5000] {
            let p = tail_percentile(n);
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }
}
