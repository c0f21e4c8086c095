//! Golden pin for the bank-arbitrated MRF model ([`BankPolicy::Arbitrated`]).
//!
//! The frozen reference engine predates bank modeling, so the timing
//! differential suite only covers [`BankPolicy::Ideal`]. This test pins
//! the arbitrated policy instead: every paper workload is traced once and
//! replayed under banks {1,2,3,4,8} × operand-buffer depth {1,2,4} × three
//! schedulers, and the `cycles instructions deschedules` of each cell must
//! match the committed `results/timing_banks.txt` byte for byte.
//!
//! On a mismatch the regenerated report is written next to the test
//! binaries (`CARGO_TARGET_TMPDIR/timing_banks.txt`); review the diff and
//! copy it over the golden only for an intended change to the bank model.

use std::fmt::Write as _;
use std::path::PathBuf;

use rfh::sim::exec::{execute_with, ExecMode};
use rfh::sim::machine::MachineConfig;
use rfh::sim::timing::{simulate_timing, BankPolicy, SchedPolicy, TimingConfig, TraceCapture};
use rfh_testkit::pool::par_map;

/// The scheduler axis: the paper's two-level(8), the single-level
/// baseline, and a small greedy active set that stresses refill.
fn schedulers() -> [(&'static str, TimingConfig); 3] {
    [
        ("two-level(8)", TimingConfig::two_level(8)),
        ("single-level", TimingConfig::single_level()),
        (
            "two-level(2)-greedy",
            TimingConfig::two_level(2).with_policy(SchedPolicy::Greedy),
        ),
    ]
}

/// The report lines of one workload: one line per (banks, depth,
/// scheduler) cell.
fn workload_report(w: &rfh::workloads::Workload) -> String {
    let machine = MachineConfig::paper();
    let mut cap = TraceCapture::new(machine.clone(), w.launch.threads_per_cta);
    let mut mem = w.memory.clone();
    execute_with(
        &w.kernel,
        &w.launch,
        &mut mem,
        ExecMode::Baseline,
        &machine,
        &mut [&mut cap],
    )
    .unwrap_or_else(|e| panic!("{}: trace capture failed: {e}", w.name));
    let mut out = String::new();
    for banks in [1, 2, 3, 4, 8] {
        for depth in [1, 2, 4] {
            for (sched, cfg) in schedulers() {
                let cfg = cfg.with_bank_policy(BankPolicy::Arbitrated { banks, depth });
                let r = simulate_timing(&cap.traces, &|wi| cap.cta_of(wi), &cfg)
                    .unwrap_or_else(|e| panic!("{} {sched} b{banks} d{depth}: {e}", w.name));
                writeln!(
                    out,
                    "{} b{banks} d{depth} {sched}: {} {} {}",
                    w.name, r.cycles, r.instructions, r.deschedules
                )
                .expect("write to String");
            }
        }
    }
    out
}

#[test]
fn arbitrated_banks_match_golden() {
    let workloads = rfh::workloads::all();
    assert_eq!(workloads.len(), 35, "the paper's full workload suite");
    let report: String = par_map(&workloads, workload_report).concat();

    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/timing_banks.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path.display()));
    if report != golden {
        let fresh = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("timing_banks.txt");
        std::fs::write(&fresh, &report).expect("write regenerated report");
        let first = golden
            .lines()
            .zip(report.lines())
            .find(|(g, r)| g != r)
            .map(|(g, r)| format!("golden `{g}` vs regenerated `{r}`"))
            .unwrap_or_else(|| "line count differs".into());
        panic!(
            "bank-arbitrated timing drifted from {}: first difference: {first}; \
             regenerated report at {}",
            golden_path.display(),
            fresh.display()
        );
    }
}
