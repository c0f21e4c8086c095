//! `compile`: in-process `rfhc lint` plus `rfhc` allocate.
//!
//! One operation takes one kernel's text under one allocator
//! configuration through parse → validate → lint → allocate → print
//! annotated. The corpus is the 35 paper kernels plus seeded random
//! kernels in three size and register-pool classes. Nothing executes, so
//! compiler-layer changes show here and executor changes should not.
//! Single-threaded, as one `rfhc` invocation is.

use std::hint::black_box;
use std::time::Instant;

use rfh_alloc::{allocate, validate_placements, AllocConfig};
use rfh_analysis::absint::{self, AbsCtx};
use rfh_analysis::strand::mark_strands;
use rfh_analysis::{DomTree, Liveness};
use rfh_energy::EnergyModel;
use rfh_isa::printer::{print_kernel, print_kernel_annotated};
use rfh_lint::{lint_kernel, LintOptions, Severity};
use rfh_workloads::generator::{random_program, GenConfig};

use crate::guard::COMPILE_CONFIGS;
use crate::stats::{digest, mix};
use crate::trace::{count, set_op, span};
use crate::{time_setup, Args, Outcome, Pass, Passes};

/// Seeded kernel classes: name and generator shape. The large class
/// keeps 24 values in play, far beyond a 3-entry ORF.
pub const CLASSES: [(&str, GenConfig); 3] = [
    (
        "small",
        GenConfig {
            segments: 4,
            run_len: 4,
            max_trips: 3,
            pool: 6,
        },
    ),
    (
        "medium",
        GenConfig {
            segments: 8,
            run_len: 6,
            max_trips: 4,
            pool: 12,
        },
    ),
    (
        "large",
        GenConfig {
            segments: 12,
            run_len: 8,
            max_trips: 5,
            pool: 24,
        },
    ),
];

/// Seeded kernels per class. Enough that the corpus's cost barely
/// depends on which kernels a seed draws.
const PER_CLASS: [usize; 3] = [60, 45, 30];

/// Kernel texts: the paper suite, then the seeded classes.
pub fn corpus(seed: u64, smoke: bool) -> Vec<String> {
    let mut texts: Vec<String> = rfh_workloads::all()
        .iter()
        .take(if smoke { 2 } else { usize::MAX })
        .map(|w| print_kernel(&w.kernel))
        .collect();
    for (c, ((_, shape), n)) in CLASSES.iter().zip(PER_CLASS).enumerate() {
        for j in 0..if smoke { 1 } else { n } {
            let (k, _, _) = random_program(mix(seed, c as u64, j as u64), *shape);
            texts.push(print_kernel(&k));
        }
    }
    texts
}

/// What one compile produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The annotated kernel text.
    pub text: String,
    /// Lint findings of error severity.
    pub lint_errors: usize,
}

/// One operation, with a span around each layer call when tracing. The
/// traced path also runs the analyses lint and allocate build on, so
/// their cost shows as layers of their own.
pub fn compile(src: &str, cfg: &AllocConfig, model: &EnergyModel) -> Result<Compiled, String> {
    count("isa.parse.calls", 1.0);
    let mut k = span("isa.parse", || rfh_isa::parse_kernel(src)).map_err(|e| e.to_string())?;
    span("isa.validate", || rfh_isa::validate(&k)).map_err(|e| e.to_string())?;
    if crate::trace::enabled() {
        span("analysis.dom_liveness", || {
            black_box((DomTree::dominators(&k), Liveness::compute(&k)))
        });
        let mut marked = k.clone();
        let info = span("analysis.strand", || mark_strands(&mut marked));
        count("analysis.strand.strands", info.strands.len() as f64);
        span("analysis.absint", || {
            black_box(absint::analyze(&marked, AbsCtx::default()))
        });
    }
    let options = LintOptions {
        alloc: *cfg,
        ..Default::default()
    };
    let diags = span("lint", || lint_kernel(&k, &options));
    count("lint.findings", diags.len() as f64);
    count("alloc.calls", 1.0);
    let stats = span("alloc", || allocate(&mut k, cfg, model)).map_err(|e| e.to_string())?;
    count("alloc.demoted", stats.demoted as f64);
    if crate::trace::enabled() {
        span("alloc.validate", || validate_placements(&k, cfg))?;
    }
    let text = span("isa.print", || print_kernel_annotated(&k));
    Ok(Compiled {
        text,
        lint_errors: diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count(),
    })
}

/// The reference for one (kernel, config): the first compile, accepted
/// only if its placements validate and lint finds no errors.
fn reference(src: &str, cfg: &AllocConfig, model: &EnergyModel) -> Option<String> {
    let c = compile(src, cfg, model).ok()?;
    // The annotated text round-trips, so the placements checked here are
    // exactly the ones printed.
    let k = rfh_isa::parse_kernel(&c.text).ok()?;
    rfh_isa::validate(&k).ok()?;
    validate_placements(&k, cfg).ok()?;
    (c.lint_errors == 0).then_some(c.text)
}

/// Counts outputs that differ from their reference.
pub fn check(out: &Result<Compiled, String>, reference: &Option<String>) -> bool {
    match (out, reference) {
        (Ok(c), Some(r)) => c.lint_errors == 0 && &c.text == r,
        _ => false,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome {
        tail_wanted: 99.0,
        ..Default::default()
    };
    let (setup, texts) = time_setup(15, || corpus(args.seed, args.smoke));
    o.setup_s = setup;
    let model = EnergyModel::paper();
    let jobs: Vec<(usize, AllocConfig)> = (0..texts.len())
        .flat_map(|t| COMPILE_CONFIGS.iter().map(move |c| (t, *c)))
        .collect();
    let refs: Vec<Option<String>> = jobs
        .iter()
        .map(|(t, cfg)| reference(&texts[*t], cfg, &model))
        .collect();
    o.notes.push(format!(
        "seed {} inputs digest {:016x}: {} kernels x {} configs, 1 thread",
        args.seed,
        digest(texts.iter().map(String::as_str)),
        texts.len(),
        COMPILE_CONFIGS.len()
    ));
    o.measure(args, Passes::Timed(1), |_| {
        let mut p = Pass::default();
        let start = Instant::now();
        let mut outs = Vec::with_capacity(jobs.len());
        for (op, (t, cfg)) in jobs.iter().enumerate() {
            set_op(op as u64 + 1);
            let t0 = Instant::now();
            let out = compile(&texts[*t], cfg, &model);
            p.ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            outs.push(out);
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
    fn corpus_is_a_function_of_the_seed() {
        assert_eq!(corpus(7, true), corpus(7, true));
        assert_ne!(corpus(7, true), corpus(8, true));
    }

    #[test]
    fn an_invalid_placement_is_a_failure() {
        let model = EnergyModel::paper();
        let cfg = AllocConfig::three_level(3, true);
        let src = &corpus(1, true)[0];
        let r = reference(src, &cfg, &model);
        assert!(r.is_some(), "the reference compile validates");
        let good = compile(src, &cfg, &model);
        assert!(check(&good, &r));
        // Point every MRF read at an ORF entry nothing wrote: the
        // placements no longer validate, so this output cannot be the
        // reference's.
        let mut k = rfh_isa::parse_kernel(&good.as_ref().unwrap().text).unwrap();
        for b in &mut k.blocks {
            for i in &mut b.instrs {
                for loc in &mut i.read_locs {
                    *loc = rfh_isa::ReadLoc::Orf(0);
                }
            }
        }
        assert!(validate_placements(&k, &cfg).is_err());
        let bad = Ok(Compiled {
            text: print_kernel_annotated(&k),
            lint_errors: 0,
        });
        assert!(!check(&bad, &r));
    }
}
