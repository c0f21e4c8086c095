//! The simulated guard metrics: the paper's claims as this model computes
//! them. They are deterministic, so a change that only speeds the host up
//! must leave them exactly equal. They are computed once per run over the
//! paper suite, after the measured phase, so every workload reports the
//! same values.

use rfh_alloc::pass::read_level_counts;
use rfh_alloc::AllocConfig;
use rfh_experiments::{perf, runner, ExperimentCtx};
use rfh_testkit::pool::par_map;

/// The compile workload's allocator configurations: two-level 3-entry,
/// three-level split 3-entry, three-level unified 1-entry.
pub const COMPILE_CONFIGS: [AllocConfig; 3] = [
    AllocConfig::two_level(3),
    AllocConfig::three_level(3, true),
    AllocConfig::three_level(1, false),
];

/// The three guard values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guard {
    /// Mean normalized RF energy, SW three-level split LRF, 3-entry ORF.
    pub energy_norm: f64,
    /// Static operand reads left in the MRF over all reads, summed over
    /// the paper kernels under the compile configurations.
    pub mrf_read_frac: f64,
    /// Mean cycles at two-level with 8 active warps over single-level.
    pub norm_runtime_8: f64,
}

/// Computes the guard metrics over the paper suite (the first four
/// workloads when `smoke`).
pub fn compute(smoke: bool) -> Guard {
    let mut workloads = rfh_workloads::all();
    if smoke {
        workloads.truncate(4);
    }
    let ctx = ExperimentCtx::new(&workloads);
    let idx: Vec<usize> = (0..workloads.len()).collect();
    let energy = par_map(&idx, |&i| {
        ctx.sw_normalized(i, &AllocConfig::three_level(3, true))
    });
    let (mut mrf, mut all) = (0usize, 0usize);
    for cfg in &COMPILE_CONFIGS {
        for &i in &idx {
            let (lrf, orf, m) = read_level_counts(&ctx.allocated(i, cfg));
            mrf += m;
            all += lrf + orf + m;
        }
    }
    let at8 = perf::run(&ctx, &[8]);
    Guard {
        energy_norm: runner::mean(&energy),
        mrf_read_frac: mrf as f64 / all.max(1) as f64,
        norm_runtime_8: at8[0].normalized_runtime,
    }
}
