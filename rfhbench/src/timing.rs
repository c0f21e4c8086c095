//! `timing`: trace replay through the cycle-level timing model.
//!
//! Set-up captures each kernel's baseline trace once with
//! `TraceCapture`: the 35 paper workloads and seeded random kernels. One
//! operation replays one capture through the single-SM configuration grid
//! and through the multi-SM model at 1, 2, 4 and 8 SMs, one thread per
//! replay. The executor does no work in the measured phase.

use std::time::Instant;

use rfh_sim::exec::{execute_with, ExecMode, Launch};
use rfh_sim::machine::MachineConfig;
use rfh_sim::timing::multi_sm::simulate_multi_sm_with_jobs;
use rfh_sim::timing::{
    simulate_timing, simulate_timing_with_engine, BankPolicy, Engine, MultiSmConfig, MultiSmResult,
    SchedPolicy, TimingConfig, TimingResult, TraceCapture, TraceOp,
};
use rfh_testkit::pool::par_map;
use rfh_workloads::generator::random_program;

use crate::compile::CLASSES;
use crate::stats::{digest, mix};
use crate::trace::{count, set_op, span};
use crate::{time_setup, Args, Outcome, Pass, Passes};

/// CTAs each seeded kernel launches, so the multi-SM model has CTAs to
/// distribute.
const SEEDED_CTAS: usize = 8;

/// Seeded kernels per generator class.
const PER_CLASS: [usize; 3] = [20, 16, 12];

/// SM counts of the multi-SM replays.
pub const SMS: [usize; 4] = [1, 2, 4, 8];

/// Threads of each multi-SM replay. At `nproc` (2) the pool spawns its
/// threads per call: in six interleaved runs on a 2-vCPU host, `run_s`
/// was 5-47% slower than at one thread, and its slowest run 48% above its
/// fastest, against 17% at one thread.
const MULTI_SM_JOBS: usize = 1;

/// One captured trace set.
pub struct Case {
    pub name: String,
    pub traces: Vec<Vec<TraceOp>>,
    pub warps_per_cta: usize,
}

/// The single-SM configuration grid.
pub fn grid() -> Vec<TimingConfig> {
    let mut g = vec![TimingConfig::single_level()];
    g.extend([2, 4, 8, 16].map(TimingConfig::two_level));
    g.push(TimingConfig::two_level(8).with_policy(SchedPolicy::Greedy));
    g.push(
        TimingConfig::two_level(8).with_bank_policy(BankPolicy::Arbitrated { banks: 4, depth: 2 }),
    );
    g
}

fn multi(sms: usize) -> MultiSmConfig {
    MultiSmConfig::new(sms, TimingConfig::two_level(8))
}

/// Captures every trace set: the paper suite, then the seeded classes.
/// Returns the cases and a digest of the generated kernels.
pub fn capture_all(seed: u64, smoke: bool) -> (Vec<Case>, u64) {
    let machine = MachineConfig::paper();
    let mut items: Vec<(String, rfh_isa::Kernel, Launch, rfh_sim::GlobalMemory)> =
        rfh_workloads::all()
            .into_iter()
            .take(if smoke { 2 } else { usize::MAX })
            .map(|w| (w.name, w.kernel, w.launch, w.memory))
            .collect();
    let mut seeded = Vec::new();
    for (c, ((class, shape), n)) in CLASSES.iter().zip(PER_CLASS).enumerate() {
        for j in 0..if smoke { 1 } else { n } {
            let (k, launch, mem) = random_program(mix(seed, 100 + c as u64, j as u64), *shape);
            seeded.push(rfh_isa::printer::print_kernel(&k));
            let launch = Launch::new(SEEDED_CTAS, launch.threads_per_cta);
            items.push((format!("{class}{j}"), k, launch, mem));
        }
    }
    let cases = par_map(&items, |(name, kernel, launch, mem)| {
        let mut cap = TraceCapture::new(machine.clone(), launch.threads_per_cta);
        let mut mem = mem.clone();
        span("sim.trace_capture", || {
            execute_with(
                kernel,
                launch,
                &mut mem,
                ExecMode::Baseline,
                &machine,
                &mut [&mut cap],
            )
        })
        .unwrap_or_else(|e| panic!("{name}: capture failed: {e}"));
        Case {
            name: name.clone(),
            warps_per_cta: cap.warps_per_cta(),
            traces: cap.traces,
        }
    });
    (cases, digest(seeded.iter().map(String::as_str)))
}

/// Results of one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    pub single: Vec<TimingResult>,
    pub multi: Vec<MultiSmResult>,
}

/// One operation: the grid on the default engine, then the multi-SM
/// sweep.
pub fn replay(case: &Case) -> Result<Replayed, String> {
    let wpc = case.warps_per_cta;
    let cta_of = move |w: usize| w / wpc;
    let mut out = Replayed {
        single: Vec::new(),
        multi: Vec::new(),
    };
    for cfg in grid() {
        let r = span("sim.timing", || {
            simulate_timing(&case.traces, &cta_of, &cfg)
        })
        .map_err(|e| format!("{}: {e}", case.name))?;
        count("sim.timing.replays", 1.0);
        count("sim.timing.cycles", r.cycles as f64);
        out.single.push(r);
    }
    if crate::trace::enabled() {
        // The frozen reference engine on the same replays, for the layer
        // breakdown only.
        for cfg in grid()
            .iter()
            .filter(|c| c.validate(Engine::Reference).is_ok())
        {
            let _ = span("sim.timing.reference", || {
                simulate_timing_with_engine(&case.traces, &cta_of, cfg, Engine::Reference)
            });
        }
    }
    for sms in SMS {
        let r = span("sim.multi_sm", || {
            simulate_multi_sm_with_jobs(MULTI_SM_JOBS, &case.traces, &cta_of, &multi(sms))
        })
        .map_err(|e| format!("{}: {e}", case.name))?;
        count("sim.timing.replays", 1.0);
        count("sim.timing.cycles", r.cycles() as f64);
        out.multi.push(r);
    }
    Ok(out)
}

/// The reference for one capture: the frozen reference engine wherever
/// it accepts the configuration, the default engine's set-up-time result
/// otherwise.
pub fn reference(case: &Case) -> Result<Replayed, String> {
    let wpc = case.warps_per_cta;
    let cta_of = move |w: usize| w / wpc;
    let single = grid()
        .iter()
        .map(|cfg| {
            let engine = if cfg.validate(Engine::Reference).is_ok() {
                Engine::Reference
            } else {
                Engine::Staged
            };
            simulate_timing_with_engine(&case.traces, &cta_of, cfg, engine)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let multi = SMS
        .iter()
        .map(|&sms| {
            let cfg = multi(sms).with_engine(Engine::Reference);
            simulate_multi_sm_with_jobs(1, &case.traces, &cta_of, &cfg)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Replayed { single, multi })
}

/// Whether an output equals its reference.
pub fn check(out: &Result<Replayed, String>, reference: &Result<Replayed, String>) -> bool {
    matches!((out, reference), (Ok(a), Ok(b)) if a == b)
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome {
        tail_wanted: 95.0,
        ..Default::default()
    };
    let (setup, (cases, inputs)) = time_setup(11, || capture_all(args.seed, args.smoke));
    o.setup_s = setup;
    let refs = par_map(&cases, reference);
    o.notes.push(format!(
        "seed {} inputs digest {inputs:016x}: {} trace sets x ({} configs + {} SM counts), \
         multi-SM on {MULTI_SM_JOBS} thread",
        args.seed,
        cases.len(),
        grid().len(),
        SMS.len()
    ));
    o.measure(args, Passes::Timed(1), |traced| {
        let mut p = Pass::default();
        let start = Instant::now();
        if traced {
            // Set-up is untraced; capture again so the trace shows what
            // set-up spends in the executor.
            capture_all(args.seed, args.smoke);
        }
        let mut outs = Vec::with_capacity(cases.len());
        for (op, case) in cases.iter().enumerate() {
            set_op(op as u64 + 1);
            let t0 = Instant::now();
            outs.push(replay(case));
            p.ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        p.wall_s = start.elapsed().as_secs_f64();
        for (out, r) in outs.iter().zip(&refs) {
            p.attempted += 1;
            p.failed += u64::from(!check(out, r));
        }
        p
    });
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_off_by_one_cycle_is_a_failure() {
        let (cases, _) = capture_all(3, true);
        let r = reference(&cases[0]);
        let mut out = replay(&cases[0]);
        assert!(check(&out, &r));
        out.as_mut().unwrap().single[3].cycles += 1;
        assert!(!check(&out, &r));
    }

    #[test]
    fn capture_digest_follows_the_seed() {
        assert_eq!(capture_all(5, true).1, capture_all(5, true).1);
        assert_ne!(capture_all(5, true).1, capture_all(6, true).1);
    }
}
