//! The simulated guard metrics repeat exactly from run to run and at pool
//! sizes 1 and `nproc`.

use std::process::Command;

fn guard(jobs: usize, seed: u64) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_rfhbench"))
        .args(["--workload", "compile", "--seconds", "0.05", "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .env("RFH_JOBS", jobs.to_string())
        .output()
        .expect("run rfhbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let last = stdout.lines().last().expect("a result line");
    ["energy_norm", "mrf_read_frac", "norm_runtime_8"]
        .iter()
        .map(|name| {
            let at = last.find(&format!("\"{name}\"")).expect("metric present");
            last[at..].split(',').next().unwrap().to_string()
        })
        .collect()
}

#[test]
fn guard_metrics_repeat_exactly_across_runs_seeds_and_pool_sizes() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first = guard(1, 1);
    assert_eq!(first, guard(1, 1));
    assert_eq!(first, guard(nproc, 2));
}
