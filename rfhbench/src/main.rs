//! `rfhbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! rfhbench --workload <figures|compile|daemon|timing> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets up (several times; the median is `setup_s`),
//! computes its reference outputs, then runs passes over a fixed input
//! set until `--seconds` of measured time have accumulated (`daemon`,
//! whose passes differ in content, runs a pass count fixed from
//! `--seconds` instead). Every output
//! is checked; a wrong output counts as a failed operation. With
//! `--trace 1` half the time runs untraced and half traced, and the run
//! reports per-layer metrics instead of end-to-end ones.
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the same
//! figures for people.

mod compile;
mod cpu;
mod daemon;
mod figures;
mod guard;
mod metrics;
mod stats;
mod timing;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smallest input set and a single pass (the benchmark's own tests).
    pub smoke: bool,
}

/// One timed pass over a workload's fixed input set.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass, excluding untimed preparation and checks.
    pub wall_s: f64,
    /// Latency of each operation in the pass.
    pub ops_ms: Vec<f64>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed, were refused, or were wrong.
    pub failed: u64,
}

/// What a workload reports for rendering.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Untraced pass wall times.
    pub passes_s: Vec<f64>,
    /// Untraced operation latencies.
    pub ops_ms: Vec<f64>,
    /// Operations per second of each untraced pass.
    pub pass_ops_per_s: Vec<f64>,
    /// Traced pass wall times (trace mode only).
    pub traced_passes_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Percentile the workload reports as its tail.
    pub tail_wanted: f64,
    /// Peak resident set after the measured phase, in MB.
    pub peak_rss_mb: f64,
    /// Lines describing the generated inputs (seed, digest, concurrency).
    pub notes: Vec<String>,
}

/// How many passes a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Passes {
    /// Until the phase's share of `--seconds` is spent, and at least this
    /// many untraced passes (one traced).
    Timed(usize),
    /// Exactly this many untraced and this many traced passes, whatever
    /// the host's speed, for workloads whose passes differ in content: two
    /// commits then replay the same sequence.
    Fixed(usize, usize),
}

impl Outcome {
    /// Runs `pass` untraced as `passes` says, then, in trace mode, traced.
    /// A smoke run makes one pass of each; a wall-clock cap stops any
    /// phase after its first pass.
    pub fn measure(&mut self, args: &Args, passes: Passes, mut pass: impl FnMut(bool) -> Pass) {
        let start = Instant::now();
        // A hard wall-clock cap keeps a run well inside a
        // per-run limit even when preparation between passes is slow.
        let cap = 3.0 * args.seconds + 30.0;
        let budget = if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        };
        let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &traced in phases {
            let (min, max) = match (args.smoke, passes) {
                (true, _) => (1, 1),
                (false, Passes::Timed(_)) if traced => (1, usize::MAX),
                (false, Passes::Timed(min)) => (min, usize::MAX),
                (false, Passes::Fixed(n, _)) if !traced => (n, n),
                (false, Passes::Fixed(_, n)) => (n, n),
            };
            trace::set_enabled(traced);
            let (mut timed, mut n) = (0.0, 0);
            while n == 0
                || (n < max && (n < min || timed < budget) && start.elapsed().as_secs_f64() < cap)
            {
                let p = pass(traced);
                timed += p.wall_s;
                n += 1;
                self.attempted += p.attempted;
                self.failed += p.failed;
                if traced {
                    self.traced_passes_s.push(p.wall_s);
                } else {
                    self.passes_s.push(p.wall_s);
                    self.pass_ops_per_s
                        .push(p.ops_ms.len() as f64 / p.wall_s.max(1e-12));
                    self.ops_ms.extend(p.ops_ms);
                }
            }
            trace::set_enabled(false);
        }
        self.peak_rss_mb = peak_rss_mb();
    }
}

/// Times `f` `reps` times and returns each duration plus the last result.
pub fn time_setup<R>(reps: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (times, last.expect("at least one set-up repetition"))
}

/// Threads and connections a workload may use: `nproc`, or fewer when
/// `RFH_JOBS` asks for fewer.
pub fn jobs() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rfh_testkit::pool::jobs().min(nproc)
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Output directory for span logs and sockets, relative to the working
/// directory so socket paths stay short.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| bad("not a duration in (0, 120]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            metrics::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Runs one workload and renders its report; the last line is the JSON
/// result.
pub fn run(args: &Args) -> String {
    // The experiment pool reads RFH_JOBS; pin it so the program's pool
    // never exceeds the benchmark's thread count.
    std::env::set_var("RFH_JOBS", jobs().to_string());
    let outcome = match args.workload.as_str() {
        "figures" => figures::run(args),
        "compile" => compile::run(args),
        "daemon" => daemon::run(args),
        "timing" => timing::run(args),
        other => unreachable!("workload `{other}` passed argument checking"),
    };
    let guard = if args.trace {
        None
    } else {
        Some(guard::compute(args.smoke))
    };
    let spans = trace::spans();
    if args.trace {
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, trace::json_lines(&spans)) {
            eprintln!("rfhbench: cannot write {}: {e}", path.display());
        }
    }
    metrics::render(args, &outcome, guard.as_ref(), &spans, &trace::counts())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rfhbench: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_rfhd::json::{parse, Json};

    fn smoke(workload: &str, trace: bool) -> Json {
        let out = run(&Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.01,
            trace,
            smoke: true,
        });
        let last = out.lines().last().expect("a result line");
        let doc = parse(last).expect("the result line is JSON");
        assert_eq!(
            doc.get("correct").and_then(Json::as_bool),
            Some(true),
            "{out}"
        );
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{out}");
        doc
    }

    fn assert_metrics<'a>(doc: &Json, expected: impl Iterator<Item = (&'a str, &'a str)>) {
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in expected {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        }
    }

    #[test]
    fn every_workload_prints_every_end_to_end_metric() {
        for w in metrics::WORKLOADS {
            let doc = smoke(w, false);
            assert_metrics(&doc, metrics::END_TO_END.iter().copied());
        }
    }

    #[test]
    fn a_traced_run_prints_every_per_layer_metric() {
        let doc = smoke("compile", true);
        assert_metrics(&doc, metrics::PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
    }
}
