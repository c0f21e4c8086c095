//! `rfhc` — the standalone hierarchy compiler driver.
//!
//! Reads a kernel in the textual assembly format, runs strand marking,
//! liveness, and LRF/ORF/MRF allocation, and prints the annotated result
//! (or plain text with only the strand bits via `--plain`). The `lint`
//! subcommand runs the `rfh-lint` static analyzer instead of allocating;
//! the `trace` subcommand allocates, executes, and exports the structured
//! instruction trace (JSON lines, Chrome trace, or the per-strand energy
//! profile). `USAGE` below lists the flags.
//!
//! The four compute subcommands build one [`rfh::rfhd::Request`] from
//! argv — the same request the daemon decodes from JSON, under the same
//! field rules — and run it through the daemon's own
//! [`rfh::rfhd::compute`]; only the rendering here is `rfhc`'s. Every
//! subcommand takes its kernel as a file, `-` for stdin, or `--workload
//! NAME` (a paper-suite workload, which brings its own launch, so
//! combining it with `--ctas`/`--threads` is a usage error).
//!
//! `--hints` feeds the allocator compiler-assisted last-use hints from the
//! abstract interpreter (`rfh_analysis::absint`): reads proven to be a
//! value's final read release its ORF/LRF entry immediately, eliding
//! same-guard MRF safety copies. `--deny-warnings` makes `rfhc lint` exit
//! with the lint error code on *any* finding, notes included.
//!
//! `--engine` selects the executor: the warp-batched SoA engine (the
//! default) or the frozen reference interpreter it is differentially
//! tested against. Both produce byte-identical traces; the flag exists so
//! any divergence can be reproduced from the command line.
//!
//! The `timing` subcommand replays the captured baseline instruction
//! trace through the cycle-level two-level-scheduler model
//! (`rfh::sim::timing`) across `--sms N` SM contexts sharing a contended
//! memory model, and prints the per-SM and chip-level results. Its own
//! `--engine staged|reference` flag picks between the default engine and
//! the frozen reference oracle; both produce identical results, and the
//! output is byte-identical at any `--jobs` count.
//!
//! The `serve` subcommand runs the compile-service daemon (`rfh-rfhd`) in
//! the foreground; `client` drives it — one request, or the
//! `--replay-workloads` / `--edit-replay` load generators, which exit
//! non-zero when any workload fails. Timing the daemon is the job of the
//! repository benchmark (`rfhbench --workload daemon --trace 1`).
//!
//! Exit codes are stable per error class; `docs/ROBUSTNESS.md` lists
//! them. `rfhc lint` exits 0 when only warnings were found; `rfhc client`
//! maps a daemon error frame to the frame's own class code.

use std::io::Read;
use std::process::exit;

use rfh::alloc::LrfMode;
use rfh::rfhd::{compute, launch_bound, orf_entries, Budgets, Failure, KernelSource, Op};
use rfh::rfhd::{Endpoint, Outcome, Request};
use rfh::sim::{timing, Engine};
use rfh::{RfhError, EXIT_INTERNAL_PANIC};
use rfh_testkit::env::parse_positive_usize;

const USAGE: &str = "usage: rfhc [--orf N] [--lrf none|unified|split] [--no-partial] \
     [--no-readop] [--hints] [--plain] [--stats] [--jobs N] <kernel.rfasm | ->\n\
       rfhc lint [--orf N] [--lrf none|unified|split] [--json] [--deny-warnings] \
     [--jobs N] <kernel.rfasm | ->\n\
       rfhc trace [--orf N] [--lrf none|unified|split] [--no-partial] [--no-readop] \
     [--hints] [--baseline]\n\
             [--json | --chrome | --profile] [--ctas N] [--threads N] \
     [--engine soa|reference] [--jobs N]\n\
             <kernel.rfasm | ->\n\
       rfhc timing [--sms N] [--engine staged|reference] [--active N | --single-level] \
     [--greedy]\n\
             [--uncontended] [--jobs N] \
     (--workload NAME | [--ctas N] [--threads N] <kernel.rfasm | ->)\n\
       rfhc serve (--tcp HOST:PORT | --unix PATH) [--workers N]\n\
       rfhc client (--tcp HOST:PORT | --unix PATH) [--op OP] [--workload NAME] \
     [--timeout-ms N]\n\
             [--replay-workloads [--jobs N] [--rounds N]] [--edit-replay]\n\
             [--malformed-probe] [<kernel.rfasm | ->]";

fn usage(msg: &str) -> RfhError {
    RfhError::Usage(format!("{msg}\n{USAGE}"))
}

/// Applies `--jobs N`: overrides the `RFH_JOBS` pool knob for the rest of
/// the process. Parsed through the shared knob grammar, so a malformed
/// value warns loudly on stderr and falls back (exactly like a malformed
/// `RFH_JOBS` env var) instead of inventing a third behavior.
fn set_jobs(raw: &str) {
    if let Some(n) = parse_positive_usize("--jobs", raw) {
        std::env::set_var("RFH_JOBS", n.to_string());
    }
}

fn main() {
    // The libraries are panic-free by contract; a panic that reaches this
    // boundary is a toolchain bug and gets its own exit code so scripted
    // callers can tell it apart from every expected failure.
    let code = match std::panic::catch_unwind(real_main) {
        Ok(Ok(())) => 0,
        Ok(Err(e)) => {
            eprintln!("rfhc: {e}");
            e.exit_code()
        }
        Err(_) => {
            eprintln!("rfhc: internal error (panic); this is a bug");
            EXIT_INTERNAL_PANIC
        }
    };
    exit(code);
}

fn real_main() -> Result<(), RfhError> {
    let mut args = std::env::args().skip(1).peekable();
    let op = match args.peek().map(String::as_str) {
        Some("serve") => return serve_main(args.skip(1)),
        Some("client") => return client_main(args.skip(1)),
        Some("lint") => Op::Lint,
        Some("trace") => Op::Trace,
        Some("timing") => Op::Timing,
        _ => Op::Allocate,
    };
    if op != Op::Allocate {
        args.next();
    }
    let cli = parse_args(op, args)?;
    let outcome = compute(&cli.req, &Budgets::default(), None).map_err(failure)?;
    render(&cli, outcome)
}

/// Output format of `rfhc trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Json,
    Chrome,
    Profile,
}

/// A compute subcommand's request plus the render-only flags.
struct Cli {
    req: Request,
    /// The kernel's name in the output: its path (`-` for stdin) or
    /// workload name.
    name: String,
    plain: bool,
    stats_only: bool,
    /// `--json`, `--chrome` or `--profile`, the last one given.
    format: Option<TraceFormat>,
    deny_warnings: bool,
}

/// The one argv parser of the compute subcommands: the flags fill the
/// same [`Request`] fields the daemon decodes, under the same rules. Each
/// flag's arm names the subcommands that take it; any other flag is
/// unrecognized.
fn parse_args(op: Op, mut args: impl Iterator<Item = String>) -> Result<Cli, RfhError> {
    use Op::{Allocate, Lint, Timing, Trace};
    let mut cli = Cli {
        req: Request::new(op),
        name: String::new(),
        plain: false,
        stats_only: false,
        format: None,
        deny_warnings: false,
    };
    let req = &mut cli.req;
    // `rfhc trace` always reports the profile's total energy on stderr.
    req.profile = op == Trace;
    let mut input: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut own_launch = false;
    while let Some(arg) = args.next() {
        let needs = |what: &str| usage(&format!("{arg} needs {what}"));
        let mut value = |what: &str| args.next().ok_or_else(|| needs(what));
        match (arg.as_str(), op) {
            ("--jobs", _) => set_jobs(&value("a value")?),
            ("--help" | "-h", _) => return Err(usage("")),
            ("--workload", _) => workload = Some(value("a name")?),
            ("-", _) if input.is_none() => input = Some("-".into()),
            (other, _) if input.is_none() && !other.starts_with('-') => input = Some(other.into()),
            ("--orf", Allocate | Lint | Trace) => {
                let n = value("a value")?;
                let n = n.parse().map_err(|_| needs("an integer value"))?;
                req.config.orf_entries = orf_entries(n)
                    .ok_or_else(|| usage("ORF sizes beyond 8 entries have no energy model"))?;
            }
            ("--lrf", Allocate | Lint | Trace) => {
                let what = "none|unified|split";
                req.config.lrf = LrfMode::from_name(&value(what)?).ok_or_else(|| needs(what))?;
            }
            ("--no-partial", Allocate | Trace) => req.config.partial_ranges = false,
            ("--no-readop", Allocate | Trace) => req.config.read_operands = false,
            ("--hints", Allocate | Trace) => req.hints = true,
            ("--baseline", Trace) => req.baseline = true,
            ("--plain", Allocate) => cli.plain = true,
            ("--stats", Allocate) => cli.stats_only = true,
            ("--json", Lint | Trace) => cli.format = Some(TraceFormat::Json),
            ("--chrome", Trace) => cli.format = Some(TraceFormat::Chrome),
            ("--profile", Trace) => cli.format = Some(TraceFormat::Profile),
            ("--deny-warnings", Lint) => cli.deny_warnings = true,
            ("--ctas" | "--threads", Trace | Timing) | ("--sms", Timing) => {
                let what = "a positive integer";
                let n = value(what)?.parse().ok().filter(|&n| n >= 1);
                let n = n.ok_or_else(|| needs(what))?;
                let n = launch_bound(n).ok_or_else(|| usage(&format!("{arg} is at most 4096")))?;
                match arg.as_str() {
                    "--ctas" => req.ctas = n,
                    "--threads" => req.threads = n,
                    _ => req.sms = n,
                }
                own_launch |= arg != "--sms";
            }
            ("--engine", Trace) => {
                let what = "soa|reference";
                req.engine = Engine::from_name(&value(what)?).ok_or_else(|| needs(what))?;
            }
            ("--engine", Timing) => {
                let what = "staged|reference";
                let engine = timing::Engine::from_name(&value(what)?);
                req.model.engine = engine.ok_or_else(|| needs(what))?;
            }
            ("--active", Timing) => {
                let what = "an integer value";
                req.active_warps = value(what)?.parse().map_err(|_| needs(what))?;
            }
            ("--single-level", Timing) => req.model.single_level = true,
            ("--greedy", Timing) => req.model.greedy = true,
            ("--uncontended", Timing) => req.model.uncontended = true,
            (flag, _) => return Err(usage(&format!("unrecognized argument `{flag}`"))),
        }
    }
    let (name, source) = match (workload, input) {
        (Some(_), Some(_)) => {
            return Err(usage("--workload and a kernel file are mutually exclusive"))
        }
        (Some(_), None) if own_launch => {
            return Err(usage(
                "--ctas/--threads do not apply to --workload (it brings its own launch)",
            ))
        }
        (Some(name), None) => (name.clone(), KernelSource::Workload(name)),
        (None, Some(path)) => {
            let text = read_input(&path)?;
            (path, KernelSource::Text(text))
        }
        (None, None) if op == Op::Timing => {
            return Err(usage("timing needs --workload NAME or a kernel file"))
        }
        (None, None) => return Err(usage("no input file")),
    };
    req.source = Some(source);
    cli.name = name;
    Ok(cli)
}

/// `rfhc`'s wording of a compute failure; the class, and so the exit
/// code, is the daemon's.
fn failure(f: Failure) -> RfhError {
    match f {
        Failure::Usage(msg) => usage(&msg),
        Failure::UnknownWorkload(name) => usage(&format!(
            "unknown workload `{name}` (see `rfh::workloads::all`)"
        )),
        Failure::Isa(e) => e.into(),
        Failure::Alloc(e) => e.into(),
        Failure::Exec(e) => e.into(),
        Failure::Timing(e) => e.into(),
    }
}

/// Renders a compute outcome: results on stdout, summaries on stderr.
///
/// `rfhc lint` prints every diagnostic (human lines, or JSON lines under
/// `--json`) and exits 8 on error-severity findings; warnings and notes
/// alone exit 0 unless `--deny-warnings` turns *any* finding into the
/// lint exit code (for CI gates that keep reports empty). `rfhc timing`
/// prints one line per SM and the chip total, folded in SM order, so the
/// output is byte-identical at any `--jobs` count.
fn render(cli: &Cli, outcome: Outcome) -> Result<(), RfhError> {
    match outcome {
        Outcome::Allocated { kernel, stats, .. } => {
            if stats.demoted > 0 {
                eprintln!(
                    "rfhc: warning: internal placement validation failed; \
                     kernel demoted to MRF-only placement ({} demotion)",
                    stats.demoted
                );
            }
            if cli.stats_only || !cli.plain {
                eprintln!(
                    "rfhc: {} — {} strands, {} LRF values, {} ORF values ({} partial), \
                     {} read operands",
                    cli.req.config,
                    stats.strands,
                    stats.lrf_values,
                    stats.orf_values,
                    stats.orf_partial,
                    stats.read_operands
                );
            }
            if !cli.stats_only {
                print!(
                    "{}",
                    if cli.plain {
                        rfh::isa::printer::print_kernel(&kernel)
                    } else {
                        rfh::isa::printer::print_kernel_annotated(&kernel)
                    }
                );
            }
        }
        Outcome::Linted(diags) => {
            let name = if cli.name == "-" {
                "<stdin>"
            } else {
                &cli.name
            };
            for d in &diags {
                if cli.format == Some(TraceFormat::Json) {
                    println!("{}", lint_json(name, d).render());
                } else {
                    println!("{}", rfh::lint::human_line(name, d));
                }
            }
            let count = |s| diags.iter().filter(|d| d.severity() == s).count();
            let errors = count(rfh::lint::Severity::Error);
            let notes = count(rfh::lint::Severity::Note);
            let warnings = diags.len() - errors - notes;
            eprintln!("rfhc lint: {errors} error(s), {warnings} warning(s), {notes} note(s)");
            if errors > 0 {
                return Err(RfhError::Lint { errors });
            }
            if cli.deny_warnings && !diags.is_empty() {
                eprintln!("rfhc lint: --deny-warnings treats every finding as an error");
                return Err(RfhError::Lint {
                    errors: diags.len(),
                });
            }
        }
        Outcome::Traced { exporter, profiler } => {
            let profiler = profiler.expect("`rfhc trace` asks for the profile");
            match cli.format.unwrap_or(TraceFormat::Json) {
                TraceFormat::Json => print!("{}", exporter.json_lines()),
                TraceFormat::Chrome => print!("{}", exporter.chrome_trace()),
                TraceFormat::Profile => print!("{}", profiler.render()),
            }
            eprintln!(
                "rfhc trace: {} — {} strand(s), total energy {:.3} pJ",
                exporter.summary(),
                profiler.counter().per_strand().len(),
                profiler.total_energy().total()
            );
        }
        Outcome::Timed(result) => {
            for s in &result.per_sm {
                println!(
                    "sm {}: ctas {} warps {} cycles {} instructions {} deschedules {} ipc {:.4}",
                    s.sm,
                    s.ctas,
                    s.warps,
                    s.result.cycles,
                    s.result.instructions,
                    s.result.deschedules,
                    s.result.ipc()
                );
            }
            let sms = cli.req.sms;
            println!(
                "total: sms {sms} cycles {} instructions {} deschedules {} ipc {:.4}",
                result.cycles(),
                result.instructions(),
                result.deschedules(),
                result.ipc()
            );
            eprintln!(
                "rfhc timing: {} — {} warp(s) in {} CTA(s) across {sms} SM(s), \
                 engine {}, chip IPC {:.4}",
                cli.name,
                result.per_sm.iter().map(|s| s.warps).sum::<usize>(),
                result.per_sm.iter().map(|s| s.ctas).sum::<usize>(),
                cli.req.model.engine.name(),
                result.ipc()
            );
        }
        // No `rfhc` subcommand builds the other ops.
        Outcome::Pong | Outcome::Assembled(_) | Outcome::Simulated { .. } => {}
    }
    Ok(())
}

/// One `rfhc lint --json` line: a diagnostic as an object with the
/// stable field order `kernel, code, severity, block, instr, message`.
fn lint_json(kernel_name: &str, d: &rfh::lint::Diagnostic) -> rfh::rfhd::Json {
    use rfh::rfhd::Json;
    Json::Obj(vec![
        ("kernel".into(), Json::str(kernel_name)),
        ("code".into(), Json::str(d.code.as_str())),
        ("severity".into(), Json::str(d.severity().as_str())),
        ("block".into(), Json::u64(d.block.index() as u64)),
        (
            "instr".into(),
            d.instr.map_or(Json::Null, |i| Json::u64(i as u64)),
        ),
        ("message".into(), Json::str(&d.message)),
    ])
}

/// The `rfhc serve` subcommand: run the compile-service daemon in the
/// foreground until a `shutdown` request drains it.
///
/// The `RFHD_TIMEOUT_MS`, `RFHD_QUEUE_DEPTH`, and `RFHD_CACHE_ENTRIES`
/// environment knobs configure the per-request wall-clock timeout, the
/// accept-queue depth, and the result-cache capacity; all three follow
/// the shared knob grammar (decimal or `0x`-hex, loud warning and
/// fallback on a malformed value).
fn serve_main(mut args: impl Iterator<Item = String>) -> Result<(), RfhError> {
    let mut endpoint: Option<Endpoint> = None;
    let mut workers: Option<usize> = None;
    while let Some(arg) = args.next() {
        let needs = |what: &str| usage(&format!("{arg} needs {what}"));
        let mut value = |what: &str| args.next().ok_or_else(|| needs(what));
        match arg.as_str() {
            "--tcp" => endpoint = Some(Endpoint::Tcp(value("HOST:PORT")?)),
            "--unix" => endpoint = Some(Endpoint::Unix(value("a path")?.into())),
            "--workers" => {
                let n = parse_positive_usize("--workers", &value("a value")?);
                workers = Some(n.ok_or_else(|| needs("a positive integer"))?);
            }
            "--help" | "-h" => return Err(usage("")),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }
    let endpoint = endpoint.ok_or_else(|| usage("serve needs --tcp HOST:PORT or --unix PATH"))?;
    let mut cfg = rfh::rfhd::ServerConfig::from_env(endpoint);
    if let Some(w) = workers {
        cfg.workers = w;
    }
    let server = rfh::rfhd::Server::bind(cfg).map_err(|e| RfhError::Daemon {
        message: format!("cannot bind: {e}"),
        code: 9,
    })?;
    eprintln!("rfhc serve: listening on {}", server.endpoint());
    let report = server.run().map_err(|e| RfhError::Daemon {
        message: format!("accept loop failed: {e}"),
        code: 9,
    })?;
    eprintln!(
        "rfhc serve: drained — {} served, {} shed, {} timeout(s), {} compute panic(s), \
         {} pool panic(s), {} in flight",
        report.served,
        report.shed,
        report.timeouts,
        report.compute_panics,
        report.pool_panics,
        report.in_flight_at_exit
    );
    Ok(())
}

/// The `rfhc client` subcommand: one request against a daemon, or the
/// `--replay-workloads` load generator.
///
/// Single-request mode sends `--op` (default `ping`) with either a
/// kernel file (positional, `-` for stdin) or `--workload NAME`, prints
/// the `result` JSON on stdout, and exits with the error frame's own
/// class code on failure — remote failures script exactly like local
/// ones.
fn client_main(mut args: impl Iterator<Item = String>) -> Result<(), RfhError> {
    let mut endpoint: Option<Endpoint> = None;
    let mut op = "ping".to_string();
    let mut workload: Option<String> = None;
    let mut input: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut replay = false;
    let mut edit = false;
    let mut malformed = false;
    let mut rounds: usize = 2;
    let mut jobs: usize = rfh_testkit::pool::jobs();

    while let Some(arg) = args.next() {
        let needs = |what: &str| usage(&format!("{arg} needs {what}"));
        let mut value = |what: &str| args.next().ok_or_else(|| needs(what));
        match arg.as_str() {
            "--tcp" => endpoint = Some(Endpoint::Tcp(value("HOST:PORT")?)),
            "--unix" => endpoint = Some(Endpoint::Unix(value("a path")?.into())),
            "--op" => op = value("a value")?,
            "--workload" => workload = Some(value("a name")?),
            "--timeout-ms" => {
                let ms = rfh_testkit::env::parse_u64("--timeout-ms", &value("a value")?);
                timeout_ms = Some(ms.ok_or_else(|| needs("an integer"))?);
            }
            "--replay-workloads" => replay = true,
            "--edit-replay" => edit = true,
            "--malformed-probe" => malformed = true,
            "--rounds" => {
                let n = parse_positive_usize("--rounds", &value("a value")?);
                rounds = n.ok_or_else(|| needs("a positive integer"))?;
            }
            "--jobs" => {
                let n = parse_positive_usize("--jobs", &value("a value")?);
                jobs = n.ok_or_else(|| needs("a positive integer"))?;
            }
            "--help" | "-h" => return Err(usage("")),
            "-" if input.is_none() => input = Some("-".into()),
            other if input.is_none() && !other.starts_with('-') => input = Some(other.into()),
            other => return Err(usage(&format!("unrecognized argument `{other}`"))),
        }
    }
    let endpoint = endpoint.ok_or_else(|| usage("client needs --tcp HOST:PORT or --unix PATH"))?;

    if malformed {
        // Diagnostic: send a deliberately malformed frame. A healthy
        // daemon answers a structured `protocol` error frame; the probe
        // then exits with that frame's class code (9), exactly as any
        // request reporting that class would — so the CI smoke can
        // assert the framing layer fails closed.
        return match rfh::rfhd::malformed_probe(&endpoint) {
            Ok(frame) => Err(RfhError::Daemon {
                code: frame.kind.exit_code(),
                message: format!("malformed-frame probe answered: {frame}"),
            }),
            Err(e) => Err(RfhError::Daemon {
                code: e.exit_code(),
                message: format!("malformed-frame probe misbehaved: {e}"),
            }),
        };
    }

    if replay {
        let report =
            rfh::rfhd::replay_workloads(&endpoint, jobs, rounds, rfh::rfhd::RetryPolicy::default());
        eprintln!(
            "rfhc client: replayed {} request(s) with {} job(s) in {} ms — {} ok \
             ({} cached), {} failed",
            report.entries.len(),
            report.jobs,
            report.wall_ms,
            report.ok(),
            report.cached(),
            report.failed()
        );
        if report.failed() > 0 {
            return Err(RfhError::Daemon {
                message: format!("{} replay request(s) failed", report.failed()),
                code: 9,
            });
        }
        if !edit {
            return Ok(());
        }
    }

    if edit {
        // The before/after of incremental allocation: allocate every
        // workload cold, edit one immediate (one strand), allocate
        // again; the daemon's strand cache must splice every unchanged
        // strand; a workload that is not fully spliced counts as failed.
        let report = rfh::rfhd::edit_replay(&endpoint, jobs, rfh::rfhd::RetryPolicy::default());
        eprintln!(
            "rfhc client: edit-replayed {} workload(s) with {} job(s) in {} ms — \
             {} fully spliced, {} failed ({} strands: {} cold misses, {} edit hits, \
             {} edit misses)",
            report.entries.len(),
            report.jobs,
            report.wall_ms,
            report.fully_spliced(),
            report.failed(),
            report.entries.iter().map(|e| e.strands).sum::<u64>(),
            report.entries.iter().map(|e| e.cold_misses).sum::<u64>(),
            report.entries.iter().map(|e| e.edit_hits).sum::<u64>(),
            report.entries.iter().map(|e| e.edit_misses).sum::<u64>(),
        );
        if report.failed() > 0 {
            return Err(RfhError::Daemon {
                message: format!("{} edit-replay workload(s) failed", report.failed()),
                code: 9,
            });
        }
        return Ok(());
    }

    let mut fields = vec![("op".to_string(), rfh::rfhd::Json::str(&op))];
    match (&workload, &input) {
        (Some(_), Some(_)) => {
            return Err(usage("--workload and a kernel file are mutually exclusive"))
        }
        (Some(name), None) => {
            fields.push(("workload".to_string(), rfh::rfhd::Json::str(name)));
        }
        (None, Some(path)) => {
            let text = read_input(path)?;
            fields.push(("kernel".to_string(), rfh::rfhd::Json::str(&text)));
        }
        (None, None) => {}
    }
    if let Some(ms) = timeout_ms {
        fields.push(("timeout_ms".to_string(), rfh::rfhd::Json::u64(ms)));
    }
    let mut client = rfh::rfhd::Client::new(endpoint, rfh::rfhd::RetryPolicy::default());
    match client.request(fields) {
        Ok((result, cached)) => {
            println!("{}", result.render());
            if cached {
                eprintln!("rfhc client: served from daemon cache");
            }
            Ok(())
        }
        Err(e) => Err(RfhError::Daemon {
            code: e.exit_code(),
            message: e.to_string(),
        }),
    }
}

/// Reads the kernel text from a file path or stdin (`-`).
fn read_input(path: &str) -> Result<String, RfhError> {
    let mut buf = String::new();
    let read = if path == "-" {
        std::io::stdin().read_to_string(&mut buf).map(|_| buf)
    } else {
        std::fs::read_to_string(path)
    };
    read.map_err(|source| RfhError::Io {
        path: path.to_string(),
        source,
    })
}
