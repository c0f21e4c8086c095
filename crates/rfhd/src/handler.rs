//! Requests and the one compute path both front ends share.
//!
//! A [`Request`] is built from JSON by [`decode_request`] (the daemon)
//! and from argv by `rfhc`; both apply the same field rules
//! ([`orf_entries`], [`launch_bound`], `LrfMode::from_name`,
//! `Engine::from_name`) and start from the same defaults
//! ([`Request::new`]). [`compute`] runs one request to a typed
//! [`Outcome`] or [`Failure`]; [`handle`] renders it as the daemon's JSON,
//! `rfhc` as text and exit codes. Everything here is synchronous and
//! side-effect-free — timeouts, panic isolation, caching, and socket I/O
//! live in [`crate::server`], which wraps these functions.
//!
//! A failure's class ([`Failure::kind`]) is the same [`ErrorKind`] in both
//! front ends: the daemon sends it as the frame's `kind`, and `rfhc` exits
//! with its [`ErrorKind::exit_code`].

use std::sync::Arc;

use rfh_alloc::{
    allocate_incremental, allocate_with_hints, AllocConfig, AllocError, AllocStats,
    IncrementalStats, LrfMode, StrandAllocation,
};
use rfh_energy::{AccessCounts, EnergyModel};
use rfh_isa::{IsaError, Kernel};
use rfh_lint::{Diagnostic, LintOptions, Severity};
use rfh_sim::counts::SwCounter;
use rfh_sim::exec::{execute_with_engine, Engine, ExecError, ExecMode, ExecReport, Launch};
use rfh_sim::machine::MachineConfig;
use rfh_sim::mem::GlobalMemory;
use rfh_sim::timing::{
    self, simulate_multi_sm, MemoryModel, MultiSmConfig, MultiSmResult, SchedPolicy, TimingConfig,
    TimingError, TraceCapture, DEFAULT_MAX_CYCLES,
};
use rfh_sim::{EnergyProfiler, TraceExporter, TraceSink};
use rfh_workloads::spec::VerifyFn;

use crate::cache::{fnv1a, Key, Store};
use crate::json::Json;
use crate::proto::{ErrorFrame, ErrorKind, SCHEMA};

/// Default global-memory words for kernels submitted as raw text (64 K
/// words).
const TEXT_KERNEL_MEM_WORDS: usize = 1 << 16;

/// The compute operations the daemon serves. `Stats` and `Shutdown` are
/// control ops handled by the server itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Parse (and validate) kernel text; return the canonical form.
    Assemble,
    /// Run the static analyzer.
    Lint,
    /// Run the hierarchy allocator; return the annotated kernel.
    Allocate,
    /// Execute functionally; return the report, access counts, energy.
    Simulate,
    /// Capture the baseline trace and replay it through the two-level
    /// scheduler timing model across `sms` SMs.
    Timing,
    /// Execute and export the structured instruction trace.
    Trace,
    /// Daemon statistics (server-handled).
    Stats,
    /// Graceful drain-then-exit (server-handled).
    Shutdown,
}

impl Op {
    /// The wire name.
    pub const fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Assemble => "assemble",
            Op::Lint => "lint",
            Op::Allocate => "allocate",
            Op::Simulate => "simulate",
            Op::Timing => "timing",
            Op::Trace => "trace",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parses the wire name.
    pub fn from_name(name: &str) -> Option<Op> {
        Some(match name {
            "ping" => Op::Ping,
            "assemble" => Op::Assemble,
            "lint" => Op::Lint,
            "allocate" => Op::Allocate,
            "simulate" => Op::Simulate,
            "timing" => Op::Timing,
            "trace" => Op::Trace,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    /// Whether results of this op are deterministic functions of the
    /// request and therefore cacheable.
    pub const fn cacheable(self) -> bool {
        matches!(
            self,
            Op::Assemble | Op::Lint | Op::Allocate | Op::Simulate | Op::Timing | Op::Trace
        )
    }

    /// Whether this op needs a kernel (text or workload name).
    pub const fn needs_kernel(self) -> bool {
        !matches!(self, Op::Ping | Op::Stats | Op::Shutdown)
    }
}

/// Where the kernel comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelSource {
    /// Raw assembly text supplied in the request.
    Text(String),
    /// The name of a benchmark workload the daemon knows
    /// (`rfh_workloads::by_name`), including its launch geometry, input
    /// memory, and host reference checker.
    Workload(String),
}

/// Timing-model choices only `rfhc timing` exposes (`--single-level`,
/// `--greedy`, `--uncontended`, `--engine staged|reference`). The wire
/// has no fields for them, so a decoded request always has the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingModel {
    /// Simulate the single-level scheduler instead of the two-level one.
    pub single_level: bool,
    /// Greedy warp selection instead of round-robin.
    pub greedy: bool,
    /// No memory contention between SMs.
    pub uncontended: bool,
    /// The timing engine.
    pub engine: timing::Engine,
}

/// A decoded, validated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// The kernel, for ops that need one.
    pub source: Option<KernelSource>,
    /// Allocation configuration.
    pub config: AllocConfig,
    /// Feed the allocator compiler-assisted last-use hints
    /// ([`allocate_with_hints`]).
    pub hints: bool,
    /// Execute unallocated in baseline mode (simulate/trace).
    pub baseline: bool,
    /// Launch geometry for [`KernelSource::Text`] kernels.
    pub ctas: usize,
    /// Threads per CTA for [`KernelSource::Text`] kernels.
    pub threads: usize,
    /// Per-request wall-clock timeout override (capped by the server).
    pub timeout_ms: Option<u64>,
    /// Per-request instruction budget override (capped by the server).
    pub budget_instructions: Option<u64>,
    /// Per-request timing cycle budget override (capped by the server).
    pub budget_cycles: Option<u64>,
    /// Active-warp count for the timing op's two-level scheduler, checked
    /// by [`TimingConfig::validate`].
    pub active_warps: usize,
    /// SM contexts the timing op distributes CTAs across.
    pub sms: usize,
    /// Executor engine.
    pub engine: Engine,
    /// The `rfhc`-only timing-model choices.
    pub model: TimingModel,
    /// Also run the per-strand energy profiler on a `trace`. Only `rfhc`
    /// renders it; the wire has no field for it.
    pub profile: bool,
}

/// The ORF sizes the energy model covers: 0 (the MRF-only baseline)
/// through 8 entries.
pub fn orf_entries(n: u64) -> Option<usize> {
    (n <= 8).then_some(n as usize)
}

/// The bound on CTAs, threads per CTA and SMs: 1..=4096.
pub fn launch_bound(n: u64) -> Option<usize> {
    (1..=4096).contains(&n).then_some(n as usize)
}

impl Request {
    /// A request for `op` with every other field at its default: id 0, no
    /// kernel, the paper's 3-entry split-LRF config, one CTA of 64
    /// threads, 8 active warps on one SM, the default engines.
    pub fn new(op: Op) -> Request {
        Request {
            id: 0,
            op,
            source: None,
            config: AllocConfig::default(),
            hints: false,
            baseline: false,
            ctas: 1,
            threads: 64,
            timeout_ms: None,
            budget_instructions: None,
            budget_cycles: None,
            active_warps: 8,
            sms: 1,
            engine: Engine::default(),
            model: TimingModel::default(),
            profile: false,
        }
    }

    /// The canonical request string: every semantic field, serialized so
    /// that two requests canonicalize equal exactly when their results
    /// must be equal. This full string keys the daemon's result cache
    /// (its [`fnv1a`] digest is only a fast pre-key — see
    /// [`crate::cache::Key`]), so a digest collision between two distinct
    /// requests can never serve the wrong cached response.
    pub fn canonical(&self) -> String {
        let (kind, body) = match &self.source {
            Some(KernelSource::Text(t)) => ("text", t.as_str()),
            Some(KernelSource::Workload(w)) => ("workload", w.as_str()),
            None => ("none", ""),
        };
        // `timing` replays the baseline trace, so the allocation config,
        // `hints` and `baseline` cannot change its result: they key as
        // their defaults.
        let timing = self.op == Op::Timing;
        let config = if timing {
            AllocConfig::default()
        } else {
            self.config
        };
        format!(
            "{}\0{kind}\0{body}\0orf={} lrf={:?} partial={} readop={} base={} ctas={} \
             threads={} binst={:?} bcyc={:?} active={} engine={} hints={} sms={} model={:?}",
            self.op.name(),
            config.orf_entries,
            config.lrf,
            config.partial_ranges,
            config.read_operands,
            self.baseline && !timing,
            self.ctas,
            self.threads,
            self.budget_instructions,
            self.budget_cycles,
            self.active_warps,
            self.engine.name(),
            self.hints && !timing,
            self.sms,
            self.model,
        )
    }

    /// The 64-bit content digest of [`Request::canonical`]. Kept for
    /// reporting and as the cache pre-key; no longer used as a cache key
    /// on its own.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// The timing op's multi-SM configuration under `budgets`.
    fn timing_config(&self, budgets: &Budgets) -> MultiSmConfig {
        let m = self.model;
        let mut per_sm = if m.single_level {
            TimingConfig::single_level()
        } else {
            TimingConfig::two_level(self.active_warps)
        }
        .with_max_cycles(budgets.max_cycles);
        if m.greedy {
            per_sm = per_sm.with_policy(SchedPolicy::Greedy);
        }
        let config = MultiSmConfig::new(self.sms, per_sm).with_engine(m.engine);
        if m.uncontended {
            config.with_memory(MemoryModel::uncontended())
        } else {
            config
        }
    }
}

/// The per-strand allocation cache shared across requests: strand
/// fingerprints ([`rfh_alloc::strand_fingerprint`]) map to cached
/// [`StrandAllocation`]s, so an edited kernel re-runs analysis +
/// allocation only for the strands whose content changed.
pub type StrandStore = Store<Key, Arc<StrandAllocation>>;

/// Runs hierarchy allocation, incrementally when a strand cache is
/// supplied, monolithically otherwise. Both paths produce byte-identical
/// kernels and stats (proven by `tests/incremental.rs`).
///
/// Strand fingerprints are salted with the config and the energy model
/// but not with hints, so a hinted allocation bypasses the store: it
/// must not splice an unhinted allocation's placements, nor publish its
/// own for one.
fn allocate_via(
    kernel: &mut Kernel,
    req: &Request,
    strands: Option<&StrandStore>,
) -> Result<(AllocStats, Option<IncrementalStats>), Failure> {
    let model = EnergyModel::paper();
    match strands {
        Some(store) if !req.hints => {
            let (stats, inc) = allocate_incremental(
                kernel,
                &req.config,
                &model,
                &mut |fp| store.get(&Key::new(fp)).map(|a| (*a).clone()),
                &mut |fp, sa| {
                    store.insert(Key::new(fp), Arc::new(sa.clone()));
                },
            )
            .map_err(Failure::Alloc)?;
            Ok((stats, Some(inc)))
        }
        _ => Ok((
            allocate_with_hints(kernel, &req.config, &model, req.hints).map_err(Failure::Alloc)?,
            None,
        )),
    }
}

fn usage(msg: impl Into<String>) -> ErrorFrame {
    ErrorFrame::new(ErrorKind::Usage, msg)
}

/// Reads the optional field at the dotted `path`. An absent field is
/// `None`; a present one that `get` rejects (wrong type, sign or bound)
/// is a usage error saying what the field must be, never a silent
/// fallback to the default.
fn opt<'a, T>(
    doc: &'a Json,
    path: &str,
    must: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, ErrorFrame> {
    match path.split('.').try_fold(doc, |j, key| j.get(key)) {
        None => Ok(None),
        Some(v) => get(v)
            .map(Some)
            .ok_or_else(|| usage(format!("`{path}` must be {must}"))),
    }
}

/// Decodes a parsed request document into a [`Request`].
///
/// # Errors
///
/// A [`ErrorKind::Protocol`] frame for a missing/wrong schema tag, and a
/// [`ErrorKind::Usage`] frame for bad fields (unknown op, missing or
/// conflicting kernel source, a field of the wrong type or out of range).
pub fn decode_request(doc: &Json) -> Result<Request, ErrorFrame> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(ErrorFrame::new(
            ErrorKind::Protocol,
            format!("request must carry \"schema\":\"{SCHEMA}\""),
        ));
    }
    let uint = "an unsigned integer";
    let flag = "a boolean";
    let dim = "an integer in 1..=4096";
    let id = opt(doc, "id", uint, Json::as_u64)?.unwrap_or(0);
    let op = opt(doc, "op", "a string", Json::as_str)?
        .ok_or_else(|| usage("request is missing the `op` field"))?;
    let op = Op::from_name(op).ok_or_else(|| usage(format!("unknown op `{op}`")))?;
    let mut req = Request::new(op);
    req.id = id;

    let kernel = opt(doc, "kernel", "a string", Json::as_str)?;
    let workload = opt(doc, "workload", "a string", Json::as_str)?;
    req.source = match (kernel, workload) {
        (Some(_), Some(_)) => return Err(usage("`kernel` and `workload` are mutually exclusive")),
        (Some(text), None) => Some(KernelSource::Text(text.to_string())),
        (None, Some(name)) => Some(KernelSource::Workload(name.to_string())),
        (None, None) => None,
    };
    if op.needs_kernel() && req.source.is_none() {
        return Err(usage(format!(
            "op `{}` needs a `kernel` or `workload` field",
            op.name()
        )));
    }

    opt(doc, "config", "an object", |c| {
        matches!(c, Json::Obj(_)).then_some(())
    })?;
    let c = &mut req.config;
    let orf = |v: &Json| v.as_u64().and_then(orf_entries);
    c.orf_entries = opt(doc, "config.orf", "an integer in 0..=8", orf)?.unwrap_or(c.orf_entries);
    let lrf = |v: &Json| v.as_str().and_then(LrfMode::from_name);
    c.lrf = opt(doc, "config.lrf", "none|unified|split", lrf)?.unwrap_or(c.lrf);
    c.partial_ranges = opt(doc, "config.partial", flag, Json::as_bool)?.unwrap_or(true);
    c.read_operands = opt(doc, "config.readop", flag, Json::as_bool)?.unwrap_or(true);

    let dim_of = |v: &Json| v.as_u64().and_then(launch_bound);
    let ctas = opt(doc, "ctas", dim, dim_of)?;
    let threads = opt(doc, "threads", dim, dim_of)?;
    if matches!(req.source, Some(KernelSource::Workload(_)))
        && (ctas.is_some() || threads.is_some())
    {
        return Err(usage(
            "`ctas`/`threads` do not apply to a `workload` (it brings its own launch)",
        ));
    }
    req.ctas = ctas.unwrap_or(req.ctas);
    req.threads = threads.unwrap_or(req.threads);
    req.sms = opt(doc, "sms", dim, dim_of)?.unwrap_or(req.sms);
    req.hints = opt(doc, "hints", flag, Json::as_bool)?.unwrap_or(false);
    req.baseline = opt(doc, "baseline", flag, Json::as_bool)?.unwrap_or(false);
    req.timeout_ms = opt(doc, "timeout_ms", uint, Json::as_u64)?;
    req.budget_instructions = opt(doc, "budget_instructions", uint, Json::as_u64)?;
    req.budget_cycles = opt(doc, "budget_cycles", uint, Json::as_u64)?;
    let active = opt(doc, "active_warps", uint, Json::as_u64)?;
    req.active_warps = active.map_or(req.active_warps, |n| n as usize);
    let engine = |v: &Json| v.as_str().and_then(Engine::from_name);
    req.engine = opt(doc, "engine", "soa|reference", engine)?.unwrap_or_default();
    Ok(req)
}

/// Caps actually applied to one request: the server clamps client
/// overrides to its configured maxima before calling [`handle`].
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Instruction budget per warp for functional execution.
    pub max_warp_instructions: u64,
    /// Cycle budget for the timing model.
    pub max_cycles: u64,
}

impl Default for Budgets {
    /// The library defaults `rfhc` runs under.
    fn default() -> Self {
        Budgets {
            max_warp_instructions: MachineConfig::paper().max_warp_instructions,
            max_cycles: DEFAULT_MAX_CYCLES,
        }
    }
}

/// Why a request failed. Each front end words it its own way; both
/// classify it by [`Failure::kind`].
#[derive(Debug)]
pub enum Failure {
    /// The op cannot run here (a control op, or no kernel).
    Usage(String),
    /// `workload` names no known workload.
    UnknownWorkload(String),
    /// The kernel failed to parse or validate.
    Isa(IsaError),
    /// Allocation rejected the kernel or the config.
    Alloc(AllocError),
    /// Functional execution failed.
    Exec(ExecError),
    /// The timing model rejected its config or aborted.
    Timing(TimingError),
}

impl Failure {
    /// The failure class, shared by the daemon's frames and `rfhc`'s exit
    /// codes.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Failure::Usage(_) | Failure::UnknownWorkload(_) => ErrorKind::Usage,
            Failure::Isa(e) => ErrorKind::of_isa(e),
            Failure::Alloc(e) => ErrorKind::of_alloc(e),
            Failure::Exec(_) => ErrorKind::Exec,
            Failure::Timing(_) => ErrorKind::Timing,
        }
    }
}

impl From<Failure> for ErrorFrame {
    fn from(f: Failure) -> Self {
        let message = match &f {
            Failure::Usage(m) => m.clone(),
            Failure::UnknownWorkload(name) => {
                format!("unknown workload `{name}` (see `rfh_workloads::all`)")
            }
            // The daemon reports an invalid kernel without the
            // allocator's prefix, whichever stage noticed it.
            Failure::Isa(e) | Failure::Alloc(AllocError::InvalidKernel(e)) => e.to_string(),
            Failure::Alloc(e) => e.to_string(),
            Failure::Exec(e) => e.to_string(),
            Failure::Timing(e) => e.to_string(),
        };
        ErrorFrame::new(f.kind(), message)
    }
}

/// What one request computed, before a front end renders it.
pub enum Outcome {
    /// `ping`.
    Pong,
    /// The parsed, validated kernel.
    Assembled(Kernel),
    /// Every finding, errors included: each front end fails on errors in
    /// its own way.
    Linted(Vec<Diagnostic>),
    /// The allocated kernel and its stats; `strands` is set when the
    /// allocation went through a strand cache.
    Allocated {
        /// The kernel with its placements.
        kernel: Kernel,
        /// What the allocator placed.
        stats: AllocStats,
        /// Strand-cache hits and misses.
        strands: Option<IncrementalStats>,
    },
    /// A functional run.
    Simulated {
        /// The executor's report.
        report: ExecReport,
        /// Register-file access counts.
        counts: AccessCounts,
        /// For a workload: its host reference check.
        verified: Option<Result<(), String>>,
    },
    /// The multi-SM timing result.
    Timed(MultiSmResult),
    /// The structured trace of one run, and its per-strand energy profile
    /// when [`Request::profile`] asked for one.
    Traced {
        /// The instruction trace.
        exporter: TraceExporter,
        /// The per-strand energy profile.
        profiler: Option<EnergyProfiler>,
    },
}

/// The kernel, launch, and memory a request resolves to, plus a
/// workload's pristine input and host reference checker.
struct Resolved {
    kernel: Kernel,
    launch: Launch,
    memory: GlobalMemory,
    check: Option<(GlobalMemory, VerifyFn)>,
}

impl Resolved {
    /// Executes once, under the request's engine and instruction budget.
    fn execute(
        &mut self,
        req: &Request,
        budgets: &Budgets,
        mode: ExecMode,
        sinks: &mut [&mut dyn TraceSink],
    ) -> Result<ExecReport, Failure> {
        let mut machine = MachineConfig::paper();
        machine.max_warp_instructions = budgets.max_warp_instructions;
        execute_with_engine(
            &self.kernel,
            &self.launch,
            &mut self.memory,
            mode,
            &machine,
            req.engine,
            sinks,
        )
        .map_err(Failure::Exec)
    }

    fn validate(&self) -> Result<(), Failure> {
        rfh_isa::validate(&self.kernel).map_err(Failure::Isa)
    }

    /// Allocates unless the request runs baseline; returns the exec mode.
    fn prepare(
        &mut self,
        req: &Request,
        strands: Option<&StrandStore>,
    ) -> Result<ExecMode, Failure> {
        if req.baseline {
            self.validate()?;
            Ok(ExecMode::Baseline)
        } else {
            allocate_via(&mut self.kernel, req, strands)?;
            Ok(ExecMode::Hierarchy(req.config))
        }
    }
}

fn resolve(req: &Request) -> Result<Resolved, Failure> {
    match req.source.as_ref() {
        Some(KernelSource::Text(text)) => Ok(Resolved {
            kernel: rfh_isa::parse_kernel(text).map_err(Failure::Isa)?,
            launch: Launch::new(req.ctas, req.threads),
            memory: GlobalMemory::new(TEXT_KERNEL_MEM_WORDS),
            check: None,
        }),
        Some(KernelSource::Workload(name)) => {
            let w = rfh_workloads::by_name(name)
                .ok_or_else(|| Failure::UnknownWorkload(name.clone()))?;
            Ok(Resolved {
                kernel: w.kernel,
                launch: w.launch,
                memory: w.memory.clone(),
                check: Some((w.memory, w.verify)),
            })
        }
        None => Err(Failure::Usage(format!(
            "op `{}` needs a kernel",
            req.op.name()
        ))),
    }
}

/// Runs one request: resolves the kernel source, validates or allocates,
/// executes at most once, and returns the typed result. With a strand
/// cache, unhinted allocations splice unchanged strands' placements from
/// it instead of recomputing them.
///
/// The timing op runs on the baseline trace whatever `baseline` and the
/// config say: a trace op carries no placement, so allocating first
/// would change nothing but the cost.
///
/// # Errors
///
/// A [`Failure`] naming the stage that failed.
pub fn compute(
    req: &Request,
    budgets: &Budgets,
    strands: Option<&StrandStore>,
) -> Result<Outcome, Failure> {
    match req.op {
        Op::Ping => Ok(Outcome::Pong),
        Op::Assemble => {
            let r = resolve(req)?;
            r.validate()?;
            Ok(Outcome::Assembled(r.kernel))
        }
        Op::Lint => {
            let r = resolve(req)?;
            r.validate()?;
            let options = LintOptions {
                alloc: req.config,
                ..Default::default()
            };
            Ok(Outcome::Linted(rfh_lint::lint_kernel(&r.kernel, &options)))
        }
        Op::Allocate => {
            let mut kernel = resolve(req)?.kernel;
            let (stats, strands) = allocate_via(&mut kernel, req, strands)?;
            Ok(Outcome::Allocated {
                kernel,
                stats,
                strands,
            })
        }
        Op::Simulate => {
            let mut r = resolve(req)?;
            let mode = r.prepare(req, strands)?;
            let mut counter = SwCounter::default();
            let report = r.execute(req, budgets, mode, &mut [&mut counter])?;
            let verified = r
                .check
                .map(|(input, verify)| verify(&input, &r.memory).map_err(|e| e.to_string()));
            Ok(Outcome::Simulated {
                report,
                counts: counter.counts(),
                verified,
            })
        }
        Op::Timing => {
            let mut r = resolve(req)?;
            r.validate()?;
            let mut cap = TraceCapture::new(MachineConfig::paper(), r.launch.threads_per_cta);
            r.execute(req, budgets, ExecMode::Baseline, &mut [&mut cap])?;
            let config = req.timing_config(budgets);
            simulate_multi_sm(&cap.traces, &|w| cap.cta_of(w), &config)
                .map(Outcome::Timed)
                .map_err(Failure::Timing)
        }
        Op::Trace => {
            let mut r = resolve(req)?;
            let mode = r.prepare(req, strands)?;
            let mut exporter = TraceExporter::new(&r.kernel);
            let orf = req.config.orf_entries;
            let mut profiler = req
                .profile
                .then(|| EnergyProfiler::new(&r.kernel, EnergyModel::paper(), orf));
            match profiler.as_mut() {
                Some(p) => r.execute(req, budgets, mode, &mut [&mut exporter, p])?,
                None => r.execute(req, budgets, mode, &mut [&mut exporter])?,
            };
            Ok(Outcome::Traced { exporter, profiler })
        }
        // Control ops never reach the compute path.
        Op::Stats | Op::Shutdown => Err(Failure::Usage(format!(
            "op `{}` is handled by the server",
            req.op.name()
        ))),
    }
}

/// Runs one compute op. Infallible ops (`ping`) aside, every failure is a
/// structured error frame; the server adds `catch_unwind` and the
/// wall-clock timeout around this call.
///
/// Allocation runs monolithically; the daemon threads its per-strand
/// cache through [`handle_with`] instead.
///
/// # Errors
///
/// An [`ErrorFrame`] in the class matching the pipeline failure.
pub fn handle(req: &Request, budgets: &Budgets) -> Result<Json, ErrorFrame> {
    handle_with(req, budgets, None)
}

/// [`handle`] with an optional per-strand allocation cache, rendering
/// [`compute`]'s outcome as the daemon's JSON result.
///
/// # Errors
///
/// An [`ErrorFrame`] in the class matching the pipeline failure.
pub fn handle_with(
    req: &Request,
    budgets: &Budgets,
    strands: Option<&StrandStore>,
) -> Result<Json, ErrorFrame> {
    let n = |v: usize| Json::u64(v as u64);
    Ok(match compute(req, budgets, strands)? {
        Outcome::Pong => obj(vec![("pong", Json::Bool(true))]),
        Outcome::Assembled(kernel) => obj(vec![
            ("text", Json::str(rfh_isa::printer::print_kernel(&kernel))),
            ("instructions", n(kernel.instr_count())),
        ]),
        Outcome::Linted(diags) => {
            let name = match &req.source {
                Some(KernelSource::Workload(n)) => n.as_str(),
                _ => "<request>",
            };
            let lines: Vec<Json> = diags
                .iter()
                .map(|d| Json::str(rfh_lint::human_line(name, d)))
                .collect();
            let errors = diags
                .iter()
                .filter(|d| d.severity() == Severity::Error)
                .count();
            if errors > 0 {
                return Err(ErrorFrame::new(
                    ErrorKind::Lint,
                    format!("lint found {errors} error(s)"),
                )
                .with_detail(Json::Arr(lines)));
            }
            obj(vec![
                ("errors", Json::u64(0)),
                ("warnings", n(lines.len())),
                ("diagnostics", Json::Arr(lines)),
            ])
        }
        Outcome::Allocated {
            kernel,
            stats,
            strands,
        } => {
            let mut fields = vec![
                ("strands", n(stats.strands)),
                ("lrf_values", n(stats.lrf_values)),
                ("orf_values", n(stats.orf_values)),
                ("orf_partial", n(stats.orf_partial)),
                ("read_operands", n(stats.read_operands)),
                ("demoted", n(stats.demoted)),
            ];
            if let Some(inc) = strands {
                fields.push(("strand_hits", n(inc.hits)));
                fields.push(("strand_misses", n(inc.misses)));
            }
            obj(vec![
                (
                    "text",
                    Json::str(rfh_isa::printer::print_kernel_annotated(&kernel)),
                ),
                ("stats", obj(fields)),
            ])
        }
        Outcome::Simulated {
            report,
            counts,
            verified,
        } => {
            let verified = match verified {
                None => Json::Null,
                Some(Ok(())) => Json::Bool(true),
                Some(Err(e)) => {
                    return Err(ErrorFrame::new(ErrorKind::Exec, format!("verify: {e}")))
                }
            };
            let c = &counts;
            // With no ORF there are no ORF accesses, so any ORF price gives
            // the same total; the model prices 1..=8 entries.
            let energy = EnergyModel::paper()
                .energy(c, req.config.orf_entries.max(1))
                .total();
            obj(vec![
                (
                    "report",
                    obj(vec![
                        ("warp_instructions", Json::u64(report.warp_instructions)),
                        ("thread_instructions", Json::u64(report.thread_instructions)),
                        ("warps", n(report.warps)),
                    ]),
                ),
                (
                    "counts",
                    obj(vec![
                        ("mrf_read", Json::u64(c.mrf_read)),
                        ("mrf_write", Json::u64(c.mrf_write)),
                        (
                            "orf_read",
                            Json::u64(c.orf_read_private + c.orf_read_shared),
                        ),
                        (
                            "orf_write",
                            Json::u64(c.orf_write_private + c.orf_write_shared),
                        ),
                        ("lrf_read", Json::u64(c.lrf_read)),
                        ("lrf_write", Json::u64(c.lrf_write)),
                    ]),
                ),
                ("energy_pj", Json::Num(energy)),
                ("verified", verified),
            ])
        }
        Outcome::Timed(t) => obj(vec![
            ("cycles", Json::u64(t.cycles())),
            ("instructions", Json::u64(t.instructions())),
            ("deschedules", Json::u64(t.deschedules())),
            ("ipc", Json::Num((t.ipc() * 1e6).round() / 1e6)),
        ]),
        Outcome::Traced { exporter, .. } => obj(vec![
            ("jsonl", Json::str(exporter.json_lines())),
            ("summary", Json::str(exporter.summary())),
        ]),
    })
}

/// A JSON object from `(key, value)` pairs.
fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const KERNEL: &str = "
.kernel axpy
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  ffma r2 r1, 2.0f, r1
  st.global r0, r2
  exit
";

    fn budgets() -> Budgets {
        Budgets {
            max_warp_instructions: 1_000_000,
            max_cycles: 10_000_000,
        }
    }

    fn req(json: &str) -> Result<Request, ErrorFrame> {
        decode_request(&parse(json).expect("test request parses"))
    }

    fn kernel_req(op: &str) -> Request {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("id".into(), Json::u64(1)),
            ("op".into(), Json::str(op)),
            ("kernel".into(), Json::str(KERNEL)),
        ]);
        decode_request(&doc).expect("decodes")
    }

    #[test]
    fn decode_rejects_bad_requests_structurally() {
        let cases = [
            ("{}", ErrorKind::Protocol),
            (
                "{\"schema\":\"rfhd-v0\",\"op\":\"ping\"}",
                ErrorKind::Protocol,
            ),
            ("{\"schema\":\"rfhd-v1\"}", ErrorKind::Usage),
            ("{\"schema\":\"rfhd-v1\",\"op\":7}", ErrorKind::Usage),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"frobnicate\"}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"allocate\"}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"allocate\",\"kernel\":\"x\",\"workload\":\"y\"}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"simulate\",\"kernel\":\"x\",\"ctas\":0}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"simulate\",\"kernel\":\"x\",\
                 \"config\":{\"orf\":9}}",
                ErrorKind::Usage,
            ),
            // A workload brings its own launch.
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"timing\",\"workload\":\"vectoradd\",\
                 \"ctas\":4}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"timing\",\"workload\":\"vectoradd\",\
                 \"threads\":32}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"timing\",\"kernel\":\"x\",\"ctas\":4097}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"timing\",\"kernel\":\"x\",\"sms\":0}",
                ErrorKind::Usage,
            ),
            (
                "{\"schema\":\"rfhd-v1\",\"op\":\"timing\",\"kernel\":\"x\",\"sms\":4097}",
                ErrorKind::Usage,
            ),
        ];
        for (text, kind) in cases {
            let e = req(text).expect_err(text);
            assert_eq!(e.kind, kind, "{text}");
        }
        // A present field of the wrong type, sign or bound is rejected,
        // never read as its default.
        let mistyped = [
            "\"config\":{\"orf\":\"9\",\"lrf\":7},\"baseline\":\"yes\",\"timeout_ms\":-5",
            "\"config\":{\"lrf\":7}",
            "\"config\":{\"partial\":\"no\"}",
            "\"config\":{\"readop\":0}",
            "\"config\":[3]",
            "\"baseline\":\"yes\"",
            "\"hints\":1",
            "\"timeout_ms\":-5",
            "\"budget_instructions\":1.5",
            "\"budget_cycles\":\"10\"",
            "\"active_warps\":-1",
            "\"ctas\":\"2\"",
            "\"threads\":null",
            "\"sms\":true",
            "\"engine\":3",
            "\"engine\":\"turbo\"",
            "\"workload\":5",
        ];
        for fields in mistyped {
            let text =
                format!("{{\"schema\":\"rfhd-v1\",\"op\":\"allocate\",\"kernel\":\"x\",{fields}}}");
            let e = req(&text).expect_err(&text);
            assert_eq!(e.kind, ErrorKind::Usage, "{text}");
        }
        let e = req(&format!(
            "{{\"schema\":\"rfhd-v1\",\"op\":\"allocate\",\"kernel\":\"x\",{}}}",
            mistyped[0]
        ))
        .expect_err("mistyped");
        assert!(e.message.contains("config.orf"), "{}", e.message);
    }

    #[test]
    fn ping_needs_no_kernel() {
        let r = req("{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":9}").expect("decodes");
        assert_eq!(r.id, 9);
        let out = handle(&r, &budgets()).expect("pong");
        assert_eq!(out.get("pong").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn allocate_round_trips_a_kernel() {
        let out = handle(&kernel_req("allocate"), &budgets()).expect("allocates");
        let text = out.get("text").and_then(Json::as_str).expect("text");
        assert!(text.contains("axpy"));
        let stats = out.get("stats").expect("stats");
        assert_eq!(stats.get("demoted").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn simulate_reports_counts_and_energy() {
        let out = handle(&kernel_req("simulate"), &budgets()).expect("simulates");
        let report = out.get("report").expect("report");
        assert!(report.get("warp_instructions").and_then(Json::as_u64) > Some(0));
        assert!(out.get("energy_pj").and_then(Json::as_f64) > Some(0.0));
        assert_eq!(out.get("verified"), Some(&Json::Null));
    }

    #[test]
    fn simulate_workload_verifies_against_host_reference() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("op".into(), Json::str("simulate")),
            ("workload".into(), Json::str("vectoradd")),
        ]);
        let r = decode_request(&doc).expect("decodes");
        let out = handle(&r, &budgets()).expect("simulates");
        assert_eq!(out.get("verified"), Some(&Json::Bool(true)));
    }

    #[test]
    fn timing_threads_the_cycle_budget() {
        let out = handle(&kernel_req("timing"), &budgets()).expect("times");
        assert!(out.get("cycles").and_then(Json::as_u64) > Some(0));
        // A one-cycle budget must come back as a structured timing error.
        let e = handle(
            &kernel_req("timing"),
            &Budgets {
                max_warp_instructions: 1_000_000,
                max_cycles: 1,
            },
        )
        .expect_err("budget of 1 cycle");
        assert_eq!(e.kind, ErrorKind::Timing);
    }

    #[test]
    fn parse_failures_map_to_the_parse_class() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("op".into(), Json::str("assemble")),
            ("kernel".into(), Json::str("this is not a kernel")),
        ]);
        let r = decode_request(&doc).expect("decodes");
        let e = handle(&r, &budgets()).expect_err("parse error");
        assert_eq!(e.kind, ErrorKind::Parse);
    }

    #[test]
    fn unknown_workload_is_a_usage_error() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("op".into(), Json::str("simulate")),
            ("workload".into(), Json::str("no-such-benchmark")),
        ]);
        let r = decode_request(&doc).expect("decodes");
        assert_eq!(
            handle(&r, &budgets()).expect_err("unknown").kind,
            ErrorKind::Usage
        );
    }

    #[test]
    fn content_hash_separates_semantic_fields_only() {
        let a = kernel_req("simulate");
        let mut b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        b.id = 99; // id is not semantic
        b.timeout_ms = Some(123); // neither is the wall-clock timeout
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = a.clone();
        c.config.orf_entries = 5;
        assert_ne!(a.content_hash(), c.content_hash());
        let mut d = a.clone();
        d.baseline = true;
        assert_ne!(a.content_hash(), d.content_hash());
        let mut e = a.clone();
        e.hints = true;
        assert_ne!(a.content_hash(), e.content_hash());
        let mut f = a.clone();
        f.sms = 2;
        assert_ne!(a.content_hash(), f.content_hash());
        // `timing` runs on the baseline trace: the allocation config,
        // `hints` and `baseline` do not key it, the rest still does.
        let t = kernel_req("timing");
        let mut g = t.clone();
        g.config.orf_entries = 0;
        g.config.lrf = LrfMode::None;
        g.config.partial_ranges = false;
        g.hints = true;
        g.baseline = true;
        assert_eq!(t.canonical(), g.canonical());
        g.sms = 2;
        assert_ne!(t.content_hash(), g.content_hash());
        let mut h = t.clone();
        h.engine = Engine::Reference;
        assert_ne!(t.content_hash(), h.content_hash());
    }

    #[test]
    fn non_numeric_id_is_a_usage_error_not_id_zero() {
        // Regression: a present-but-non-numeric `id` used to be silently
        // coerced to 0; it must be answered with a structured usage error.
        for bad in [
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":\"7\"}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":true}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":-3}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":1.5}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":null}",
            "{\"schema\":\"rfhd-v1\",\"op\":\"ping\",\"id\":[1]}",
        ] {
            let e = req(bad).expect_err(bad);
            assert_eq!(e.kind, ErrorKind::Usage, "{bad}");
            assert!(e.message.contains("id"), "{bad}: {}", e.message);
        }
        // An absent id still defaults to 0.
        let r = req("{\"schema\":\"rfhd-v1\",\"op\":\"ping\"}").expect("decodes");
        assert_eq!(r.id, 0);
    }

    #[test]
    fn strand_store_is_warmed_by_allocate_and_reused() {
        let store = StrandStore::with_capacity(64);
        let r = kernel_req("allocate");
        let cold = handle_with(&r, &budgets(), Some(&store)).expect("cold allocate");
        let hits0 = cold
            .get("stats")
            .and_then(|s| s.get("strand_hits"))
            .and_then(Json::as_u64)
            .expect("strand_hits reported");
        let miss0 = cold
            .get("stats")
            .and_then(|s| s.get("strand_misses"))
            .and_then(Json::as_u64)
            .expect("strand_misses reported");
        assert_eq!(hits0, 0);
        assert!(miss0 > 0);
        let warm = handle_with(&r, &budgets(), Some(&store)).expect("warm allocate");
        let hits1 = warm
            .get("stats")
            .and_then(|s| s.get("strand_hits"))
            .and_then(Json::as_u64)
            .expect("strand_hits reported");
        let miss1 = warm
            .get("stats")
            .and_then(|s| s.get("strand_misses"))
            .and_then(Json::as_u64)
            .expect("strand_misses reported");
        assert_eq!(miss1, 0, "every strand must splice from the cache");
        assert_eq!(hits1, miss0, "one hit per previously computed strand");
        // Identical output either way.
        assert_eq!(cold.get("text"), warm.get("text"));
        let mono = handle(&r, &budgets()).expect("monolithic allocate");
        assert_eq!(mono.get("text"), warm.get("text"));
    }

    #[test]
    fn handle_without_store_omits_strand_counters() {
        let out = handle(&kernel_req("allocate"), &budgets()).expect("allocates");
        assert!(out
            .get("stats")
            .and_then(|s| s.get("strand_hits"))
            .is_none());
    }

    #[test]
    fn orf_zero_is_the_mrf_only_baseline() {
        let r = req(
            "{\"schema\":\"rfhd-v1\",\"op\":\"allocate\",\"kernel\":\"x\",\
                     \"config\":{\"orf\":0}}",
        )
        .expect("orf 0 decodes");
        assert_eq!(r.config.orf_entries, 0);
        let mut r = kernel_req("allocate");
        r.config.orf_entries = 0;
        let out = handle(&r, &budgets()).expect("allocates");
        let orf = out.get("stats").and_then(|s| s.get("orf_values"));
        assert_eq!(orf.and_then(Json::as_u64), Some(0));
        // Every op that reads the config runs at orf 0 as well.
        let with_orf0 = |op: &str| {
            let mut r = kernel_req(op);
            r.config.orf_entries = 0;
            handle(&r, &budgets())
        };
        let sim = with_orf0("simulate").expect("simulates");
        let counts = sim.get("counts").expect("counts");
        for key in ["orf_read", "orf_write"] {
            assert_eq!(counts.get(key).and_then(Json::as_u64), Some(0), "{key}");
        }
        assert!(sim
            .get("energy_pj")
            .and_then(Json::as_f64)
            .is_some_and(|e| e > 0.0));
        assert!(with_orf0("lint").is_ok());
        let trace = with_orf0("trace").expect("traces");
        assert!(trace
            .get("jsonl")
            .and_then(Json::as_str)
            .is_some_and(|j| !j.is_empty()));
    }

    #[test]
    fn trace_profiles_only_on_request() {
        // The daemon renders no profile, so its trace op runs none.
        let mut r = kernel_req("trace");
        let traced = |r: &Request| match compute(r, &budgets(), None) {
            Ok(Outcome::Traced { exporter, profiler }) => (exporter.json_lines(), profiler),
            _ => panic!("trace failed"),
        };
        let (plain, none) = traced(&r);
        assert!(none.is_none());
        r.profile = true;
        let (profiled, some) = traced(&r);
        assert_eq!(plain, profiled);
        assert!(some.is_some_and(|p| p.total_energy().total() > 0.0));
    }

    #[test]
    fn active_warps_are_bounded_by_the_timing_model() {
        // Decoding takes any count; TimingConfig::validate rejects 0 and
        // more than the resident warps, as a timing error (code 7).
        for active in [0, 999] {
            let text = format!(
                "{{\"schema\":\"rfhd-v1\",\"op\":\"timing\",\"workload\":\"vectoradd\",\
                 \"active_warps\":{active}}}"
            );
            let r = req(&text).expect("decodes");
            let e = handle(&r, &budgets()).expect_err("invalid active set");
            assert_eq!(e.kind, ErrorKind::Timing, "{text}");
            assert_eq!(e.kind.exit_code(), 7);
        }
    }

    #[test]
    fn timing_runs_on_the_baseline_trace() {
        // A trace op carries no placement: `baseline` and the allocation
        // config cannot change the timing result.
        for name in ["vectoradd", "reduction", "matrixmul"] {
            let mut base = Request::new(Op::Timing);
            base.source = Some(KernelSource::Workload(name.into()));
            base.baseline = true;
            let mut alloc = base.clone();
            alloc.baseline = false;
            alloc.config = AllocConfig::three_level(1, false);
            let a = handle(&base, &budgets()).expect("times");
            let b = handle(&alloc, &budgets()).expect("times");
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn hinted_allocation_bypasses_the_strand_store() {
        let store = StrandStore::with_capacity(64);
        let plain = kernel_req("allocate");
        handle_with(&plain, &budgets(), Some(&store)).expect("warms the store");
        let before = store.stats();
        let mut hinted = plain.clone();
        hinted.hints = true;
        let out = handle_with(&hinted, &budgets(), Some(&store)).expect("allocates");
        let after = store.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
        assert_eq!(before.entries, after.entries);

        let mut kernel = rfh_isa::parse_kernel(KERNEL).expect("parses");
        let stats = allocate_with_hints(&mut kernel, &hinted.config, &EnergyModel::paper(), true)
            .expect("allocates");
        let text = rfh_isa::printer::print_kernel_annotated(&kernel);
        assert_eq!(out.get("text").and_then(Json::as_str), Some(text.as_str()));
        let s = out.get("stats").expect("stats");
        assert_eq!(
            s.get("read_operands").and_then(Json::as_u64),
            Some(stats.read_operands as u64)
        );
        assert!(s.get("strand_hits").is_none(), "no strand cache was used");
    }

    #[test]
    fn sms_spreads_the_timing_op_across_sms() {
        let mut one = Request::new(Op::Timing);
        one.source = Some(KernelSource::Workload("reduction".into()));
        let mut two = one.clone();
        two.sms = 2;
        let a = handle(&one, &budgets()).expect("times");
        let b = handle(&two, &budgets()).expect("times");
        assert_eq!(
            a.get("instructions"),
            b.get("instructions"),
            "SMs split the same work"
        );
        assert_ne!(a.get("cycles"), b.get("cycles"));
    }
}
