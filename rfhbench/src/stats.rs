//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail percentile actually reported for `n` samples: `wanted` if at
/// least ten samples lie beyond it, else the highest of the standard
/// percentiles that has ten beyond it. With fewer than eleven samples no
/// percentile qualifies and the maximum (100) is reported.
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    let beyond = |p: f64| n as f64 * (1.0 - p / 100.0);
    [wanted, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(p) >= 10.0)
        .unwrap_or(100.0)
}

/// FNV-1a digest folding, for fingerprinting generated inputs.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    parts.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        (h ^ rfh_rfhd::fnv1a(s.as_bytes())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 64-bit mix of a seed and stream indices (splitmix64 finalizer), so
/// every generated input draws from its own deterministic stream.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5000, 99.0), 99.0);
        assert_eq!(tail_percentile(500, 99.0), 95.0);
        assert_eq!(tail_percentile(3, 99.0), 100.0);
    }
}
