//! Shared arithmetic over counted runs: normalized energy and the
//! benchmark mean. The runs themselves are the cells of
//! [`ExperimentCtx`](crate::ctx::ExperimentCtx).

use rfh_energy::{AccessCounts, EnergyModel};

/// Per-benchmark normalized energy: `energy(scheme) / energy(baseline)`.
///
/// # Panics
///
/// Panics if `orf_entries` is outside the energy model's ORF table
/// (1–8 for the paper's Table 3). This surfaces
/// [`EnergyModel::orf_access`]'s contract instead of silently clamping
/// an out-of-range configuration onto the nearest table row, which would
/// misprice it without any indication.
pub fn normalized_energy(
    counts: &AccessCounts,
    base: &AccessCounts,
    model: &EnergyModel,
    orf_entries: usize,
) -> f64 {
    let e = model.energy(counts, orf_entries).total();
    let b = model
        .baseline_energy(base.total_reads(), base.total_writes())
        .total();
    e / b
}

/// Arithmetic mean over per-benchmark normalized values (the paper reports
/// averages over its benchmark set).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "ORF size out of range")]
    fn normalized_energy_rejects_oversized_orf() {
        // Regression: this used to clamp 9 down to 8 and silently price
        // the configuration with the wrong Table 3 row. The size check
        // does not depend on the counts.
        let model = EnergyModel::paper();
        let base = AccessCounts::default();
        normalized_energy(&base, &base, &model, 9);
    }

    #[test]
    #[should_panic(expected = "ORF size out of range")]
    fn normalized_energy_rejects_zero_entries() {
        let model = EnergyModel::paper();
        let base = AccessCounts::default();
        normalized_energy(&base, &base, &model, 0);
    }

    #[test]
    fn mean_is_arithmetic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
