//! Sweep ORF sizes over a benchmark and compare the software-managed
//! hierarchy against the hardware register file cache — a miniature
//! Figure 13 for one workload.
//!
//! ```sh
//! cargo run --release --example energy_sweep [workload]
//! ```

use rfh::alloc::AllocConfig;
use rfh::experiments::runner::normalized_energy;
use rfh::experiments::ExperimentCtx;
use rfh::sim::rfc::RfcConfig;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "matrixmul".into());
    let Some(w) = rfh::workloads::by_name(&name) else {
        eprintln!("unknown workload `{name}`; available:");
        for w in rfh::workloads::all() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(2);
    };

    let workloads = [w];
    let ctx = ExperimentCtx::new(&workloads);
    let w = &workloads[0];
    println!(
        "workload: {} ({} warp threads)",
        w.name,
        w.launch.total_threads()
    );
    println!("entries  HW RFC  SW ORF  SW ORF+split LRF");
    for entries in 1..=8 {
        let hw = ctx.hw_counts(0, &RfcConfig::two_level(entries));
        println!(
            "{entries:^7}  {:.3}   {:.3}   {:.3}",
            normalized_energy(&hw, &ctx.baseline(0), ctx.model(), entries),
            ctx.sw_normalized(0, &AllocConfig::two_level(entries)),
            ctx.sw_normalized(0, &AllocConfig::three_level(entries, true)),
        );
    }
}
