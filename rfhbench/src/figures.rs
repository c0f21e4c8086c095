//! `figures`: one full `repro all` regeneration per pass, on a fresh
//! `ExperimentCtx` over the 35 paper workloads, with the pool at `nproc`
//! jobs. The seed is ignored: the suite is the paper's.
//!
//! Traced passes first fill the context's memo through its public
//! methods over the grid the figures share, then run each arm, then time
//! the allocator, executor, counter, verifier and timing calls those
//! memo methods make on the same cells. The arms' remaining time is then
//! their own.

use std::hint::black_box;
use std::time::Instant;

use rfh_alloc::{allocate, AllocConfig};
use rfh_energy::EnergyModel;
use rfh_experiments::csv;
use rfh_experiments::{
    ablation, characterize, encoding, fig11, fig12, fig13, fig14, fig15, fig2, limit, perf, tables,
    ExperimentCtx,
};
use rfh_sim::counts::SwCounter;
use rfh_sim::exec::{execute_with, ExecMode, ExecReport};
use rfh_sim::machine::MachineConfig;
use rfh_sim::rfc::{HwCounter, RfcConfig};
use rfh_sim::sink::{NullSink, TraceSink};
use rfh_sim::timing::{simulate_timing, TimingConfig, TraceCapture};
use rfh_sim::GlobalMemory;
use rfh_testkit::pool::par_map;
use rfh_workloads::Workload;

use crate::stats::digest;
use crate::trace::{count, span};
use crate::{jobs, time_setup, Args, Outcome, Pass, Passes};

/// The CSVs `repro all --csv` writes, in the order it writes them.
pub const CSVS: [&str; 10] = [
    "characterize",
    "fig2",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "perf",
    "limit",
    "ablation",
];

/// Active-warp sizes of the `perf` arm, as `repro all` runs it.
const PERF_SIZES: [usize; 7] = [1, 2, 4, 6, 8, 16, 32];

/// Runs one arm under a span, discarding its printed table and
/// returning its CSV.
fn arm(span_name: &'static str, f: impl FnOnce() -> (String, String)) -> String {
    let (text, csv) = span(span_name, f);
    black_box(text);
    csv
}

/// Runs every `repro all` arm on `ctx`, in `repro all` order, returning
/// the CSVs by name.
pub fn regenerate(ctx: &ExperimentCtx) -> Vec<(&'static str, String)> {
    let w = ctx.workloads();
    span("experiments.tables", || {
        black_box((
            tables::table1(w),
            tables::table2(),
            tables::table3(),
            tables::table4(),
        ))
    });
    let characterize = arm("experiments.characterize", || {
        let r = characterize::run(ctx);
        (characterize::print(&r), csv::characterize_csv(&r))
    });
    let fig2 = arm("experiments.fig2", || {
        let r = fig2::run();
        (fig2::print(&r), csv::fig2_csv(&r))
    });
    let fig11 = arm("experiments.fig11", || {
        let r = fig11::run(ctx);
        (fig11::print(&r), csv::fig11_csv(&r))
    });
    let fig12 = arm("experiments.fig12", || {
        let r = fig12::run(ctx);
        (fig12::print(&r), csv::fig12_csv(&r))
    });
    let f13 = span("experiments.fig13", || {
        let f = fig13::run(ctx);
        black_box((fig13::print(&f), fig13::split_vs_unified(ctx, 3)));
        f
    });
    let fig14 = arm("experiments.fig14", || {
        let r = fig14::run(ctx);
        (fig14::print(&r), csv::fig14_csv(&r))
    });
    let fig15 = arm("experiments.fig15", || {
        let r = fig15::run(ctx);
        (fig15::print(&r), csv::fig15_csv(&r))
    });
    span("experiments.encoding", || {
        let best = f13.best(|p| p.sw_lrf_split).1;
        black_box(encoding::print(&encoding::run(1.0 - best)))
    });
    let perf = arm("experiments.perf", || {
        let r = perf::run(ctx, &PERF_SIZES);
        (perf::print(&r), csv::perf_csv(&r))
    });
    let limit = arm("experiments.limit", || {
        let r = limit::run(ctx);
        (limit::print(&r), csv::limit_csv(&r))
    });
    let ablation = arm("experiments.ablation", || {
        let r = ablation::run(ctx);
        (ablation::print(&r), csv::ablation_csv(&r))
    });
    vec![
        ("characterize", characterize),
        ("fig2", fig2),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", csv::fig13_csv(&f13)),
        ("fig14", fig14),
        ("fig15", fig15),
        ("perf", perf),
        ("limit", limit),
        ("ablation", ablation),
    ]
}

/// The memo grid the figures share: per ORF size, the HW two- and
/// three-level caches and the SW two-level, split and unified LRF
/// allocations.
fn grid_sw(e: usize) -> [AllocConfig; 3] {
    [
        AllocConfig::two_level(e),
        AllocConfig::three_level(e, true),
        AllocConfig::three_level(e, false),
    ]
}

fn grid_hw(e: usize) -> [RfcConfig; 2] {
    [RfcConfig::two_level(e), RfcConfig::three_level(e)]
}

/// Fills the memo over the shared grid through its public methods.
fn prefill(ctx: &ExperimentCtx) {
    let idx: Vec<usize> = (0..ctx.workloads().len()).collect();
    par_map(&idx, |&i| {
        span("experiments.ctx", || ctx.baseline(i));
        for e in 1..=8 {
            for cfg in grid_hw(e) {
                span("experiments.ctx", || ctx.hw_counts(i, &cfg));
            }
            for cfg in grid_sw(e) {
                span("experiments.ctx", || ctx.sw_counts(i, &cfg));
            }
        }
    });
}

fn exec(
    w: &Workload,
    k: &rfh_isa::Kernel,
    mode: ExecMode,
    sink: &mut dyn TraceSink,
) -> (ExecReport, GlobalMemory) {
    let mut mem = w.memory.clone();
    let r = execute_with(
        k,
        &w.launch,
        &mut mem,
        mode,
        &MachineConfig::paper(),
        &mut [sink],
    )
    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (r, mem)
}

/// Executes once with no sink (the executor alone) and once with
/// `counter`; returns the counted run's extra time in ms and its memory.
fn exec_pair(
    w: &Workload,
    k: &rfh_isa::Kernel,
    mode: ExecMode,
    counter: &mut dyn TraceSink,
) -> (f64, GlobalMemory) {
    let t0 = Instant::now();
    let (report, _) = span("sim.exec", || exec(w, k, mode, &mut NullSink));
    let bare = t0.elapsed().as_secs_f64();
    count("sim.exec.calls", 1.0);
    count("sim.exec.warp_instr", report.warp_instructions as f64);
    let t1 = Instant::now();
    let (_, mem) = span("sim.exec_counted", || exec(w, k, mode, counter));
    ((t1.elapsed().as_secs_f64() - bare) * 1e3, mem)
}

fn verify(w: &Workload, mem: &GlobalMemory) {
    span("workloads.verify", || (w.verify)(&w.memory, mem))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
}

/// Times, on the memo grid's cells, the layer calls the memo methods and
/// the `perf` arm make.
fn layer_replay(workloads: &[Workload]) {
    let model = EnergyModel::paper();
    par_map(workloads, |w| {
        let (extra, mem) = exec_pair(w, &w.kernel, ExecMode::Baseline, &mut SwCounter::default());
        count("sim.counts.ms", extra);
        verify(w, &mem);
        for e in 1..=8 {
            for rfc in grid_hw(e) {
                let mut k = w.kernel.clone();
                span("analysis.dom_liveness", || {
                    let lv = rfh_analysis::Liveness::compute(&k);
                    rfh_analysis::liveness::annotate_dead(&mut k, &lv);
                });
                let mut hw = HwCounter::new(rfc, &k);
                let (extra, _) = exec_pair(w, &k, ExecMode::Baseline, &mut hw);
                count("sim.rfc.ms", extra);
            }
            for cfg in grid_sw(e) {
                let mut k = w.kernel.clone();
                count("alloc.calls", 1.0);
                span("alloc", || allocate(&mut k, &cfg, &model))
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let (extra, mem) =
                    exec_pair(w, &k, ExecMode::Hierarchy(cfg), &mut SwCounter::default());
                count("sim.counts.ms", extra);
                verify(w, &mem);
            }
        }
        let machine = MachineConfig::paper();
        let mut cap = TraceCapture::new(machine, w.launch.threads_per_cta);
        span("sim.trace_capture", || {
            exec(w, &w.kernel, ExecMode::Baseline, &mut cap)
        });
        let configs = std::iter::once(TimingConfig::single_level())
            .chain(PERF_SIZES.map(TimingConfig::two_level));
        for cfg in configs {
            let r = span("sim.timing", || {
                simulate_timing(&cap.traces, &|x| cap.cta_of(x), &cfg)
            })
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            count("sim.timing.replays", 1.0);
            count("sim.timing.cycles", r.cycles as f64);
        }
    });
}

/// Number of regenerated CSVs that differ from their golden bytes.
pub fn mismatches(csvs: &[(&str, String)], goldens: &[(String, Vec<u8>)]) -> u64 {
    goldens
        .iter()
        .filter(|(name, bytes)| {
            !csvs
                .iter()
                .any(|(n, text)| n == name && text.as_bytes() == bytes.as_slice())
        })
        .count() as u64
}

/// The committed goldens, `results/<name>.csv`.
pub fn goldens() -> Vec<(String, Vec<u8>)> {
    CSVS.iter()
        .map(|name| {
            let path = crate::repo_root().join(format!("results/{name}.csv"));
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            (name.to_string(), bytes)
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome {
        tail_wanted: 99.0,
        ..Default::default()
    };
    let (setup, mut workloads) = time_setup(50, rfh_workloads::all);
    o.setup_s = setup;
    if args.smoke {
        workloads.truncate(2);
    }
    let goldens = goldens();
    o.notes.push(format!(
        "paper suite (seed ignored) inputs digest {:016x}: {} workloads, pool {} jobs",
        digest(
            workloads
                .iter()
                .map(|w| rfh_isa::printer::print_kernel(&w.kernel))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str)
        ),
        workloads.len(),
        jobs()
    ));
    o.measure(args, Passes::Timed(3), |traced| {
        let start = Instant::now();
        let ctx = ExperimentCtx::new(&workloads);
        if traced {
            prefill(&ctx);
        }
        let csvs = regenerate(&ctx);
        if traced {
            let [k, sw, hw] = ctx.cache_stats();
            for (hits, misses, s) in [
                ("ctx.kernels.hits", "ctx.kernels.misses", k),
                ("ctx.sw.hits", "ctx.sw.misses", sw),
                ("ctx.hw.hits", "ctx.hw.misses", hw),
            ] {
                count(hits, s.hits as f64);
                count(misses, s.misses as f64);
            }
            layer_replay(&workloads);
        }
        let wall_s = start.elapsed().as_secs_f64();
        // A smoke run regenerates from a truncated suite, whose CSVs
        // cannot match the full-suite goldens; it checks only that every
        // CSV was produced.
        let failed = if args.smoke {
            (CSVS.len() - csvs.len()) as u64
        } else {
            mismatches(&csvs, &goldens)
        };
        Pass {
            wall_s,
            ops_ms: vec![wall_s * 1e3],
            attempted: goldens.len() as u64,
            failed,
        }
    });
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_csv_byte_is_a_failure() {
        let goldens = goldens();
        let mut csvs: Vec<(&str, String)> = CSVS
            .iter()
            .zip(&goldens)
            .map(|(n, (_, b))| (*n, String::from_utf8(b.clone()).unwrap()))
            .collect();
        assert_eq!(mismatches(&csvs, &goldens), 0);
        let mut bytes = csvs[4].1.clone().into_bytes();
        bytes[10] ^= 1;
        csvs[4].1 = String::from_utf8(bytes).unwrap();
        assert_eq!(mismatches(&csvs, &goldens), 1);
    }
}
