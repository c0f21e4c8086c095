//! `daemon`: an rfhd on a unix socket, `nproc` workers, driven by one
//! closed-loop client connection (an edit-compile user waits for each
//! reply).
//!
//! The client, the daemon, its workers and its per-request compute
//! threads all run on one CPU. Every request hands off between three
//! threads; spread over the CPUs of a shared VM, each hand-off may wait
//! for the host to wake an idle vCPU, and that wait, not the daemon,
//! set the latency. A second client on the same CPU makes two requests
//! time-slice, and how their heavy requests overlap then set the tail.
//! On a 2-vCPU VM, the IQR over the median of `op_tail_ms` was 0.55 in
//! six runs with two clients on both CPUs, 0.20 in five with two clients
//! on one CPU, and 0.03 in five and 0.11 in ten with one client on one
//! CPU.
//!
//! A pass is a seeded request mix, per kernel class (three per pass):
//! * a cold `allocate` of a fresh kernel — a miss in both caches;
//! * an `allocate` of the same kernel with one immediate edited — a
//!   result miss that hits the strand cache;
//! * an exact repeat of the cold request — a result-cache hit;
//! * a `lint` of the fresh kernel;
//!
//! and, once per pass, a `simulate` and a `timing` of a paper workload by
//! name, with seeded configurations.
//!
//! The allocate kinds keep the proportions of the daemon's own load
//! generators: `edit_replay` sends one edited allocate per cold one, and
//! `replay_workloads` at two rounds one exact repeat per first request.
//! One lint per fresh kernel and one simulate and one timing per pass are
//! assumptions; the report prints each kind's share of request time.
//!
//! Passes differ in content (fresh kernels, rotating workload names), so
//! the pass count is fixed from `--seconds` in whole rotation cycles, not
//! from elapsed time: every commit sends the same request sequence.
//!
//! Every payload must equal in-process `handler::handle` on the same
//! request, computed before the pass.

use std::collections::BTreeMap;
use std::time::Instant;

use rfh_isa::printer::print_kernel;
use rfh_isa::Operand;
use rfh_rfhd::handler::{decode_request, handle, handle_with, Budgets, StrandStore};
use rfh_rfhd::json::{parse, Json};
use rfh_rfhd::{Client, Endpoint, RetryPolicy, Server, ServerConfig, ServerHandle, Store, SCHEMA};
use rfh_workloads::generator::random_program;

use crate::compile::CLASSES;
use crate::guard::COMPILE_CONFIGS;
use crate::stats::{digest, mix};
use crate::trace::{count, set_op, span};
use crate::{jobs, out_dir, Args, Outcome, Pass, Passes};

/// Set-up repetitions: build the workload set the requests name, then
/// bind until the first reply.
const SETUPS: usize = 30;

/// Nominal wall time of one rotation cycle (one pass per paper workload)
/// on a 2-vCPU host; it turns `--seconds` into a fixed pass count.
const CYCLE_SECONDS: f64 = 1.5;

/// What a request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Cold,
    Lint,
    Edited,
    Repeat,
    Simulate,
    Timing,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold allocate",
            Kind::Lint => "lint",
            Kind::Edited => "edited allocate",
            Kind::Repeat => "repeat allocate",
            Kind::Simulate => "simulate",
            Kind::Timing => "timing",
        }
    }
}

/// A request's fields, beside `schema` and `id`.
type Fields = Vec<(String, Json)>;

/// A daemon answer: the payload and whether it came from the cache.
type Answer = Result<(Json, bool), String>;

/// One request and the payload it must produce.
#[derive(Debug, Clone)]
pub struct Planned {
    pub kind: Kind,
    pub fields: Fields,
    /// Rendered reference payload, or `None` if the reference failed.
    pub expect: Option<String>,
}

fn field(k: &str, v: Json) -> (String, Json) {
    (k.to_string(), v)
}

fn config_json(orf: usize, lrf: &str) -> Json {
    Json::Obj(vec![
        field("orf", Json::u64(orf as u64)),
        field("lrf", Json::str(lrf)),
    ])
}

fn lrf_name(cfg: &rfh_alloc::AllocConfig) -> &'static str {
    match cfg.lrf {
        rfh_alloc::LrfMode::None => "none",
        rfh_alloc::LrfMode::Unified => "unified",
        rfh_alloc::LrfMode::Split => "split",
    }
}

/// Changes the first integer immediate of `kernel`.
fn edit_one_immediate(kernel: &mut rfh_isa::Kernel) {
    let imm = kernel
        .blocks
        .iter_mut()
        .flat_map(|b| b.instrs.iter_mut())
        .flat_map(|i| i.srcs.iter_mut())
        .find_map(|s| match s {
            Operand::Imm(v) => Some(v),
            _ => None,
        })
        .expect("generated kernels initialize registers from immediates");
    *imm = imm.wrapping_add(1);
}

/// Drops the strand-cache counters, which depend on what the daemon's
/// cache held, not on the request.
pub fn strip(j: &Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "strand_hits" && k != "strand_misses")
                .map(|(k, v)| (k.clone(), strip(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn budgets(cfg: &ServerConfig) -> Budgets {
    Budgets {
        max_warp_instructions: cfg.max_warp_instructions,
        max_cycles: cfg.max_cycles,
    }
}

fn request_doc(fields: &[(String, Json)]) -> Json {
    let mut all = vec![
        field("schema", Json::str(SCHEMA)),
        field("id", Json::u64(1)),
    ];
    all.extend(fields.iter().cloned());
    Json::Obj(all)
}

/// The in-process reference payload for one request.
fn reference(fields: &[(String, Json)], b: &Budgets) -> Option<String> {
    let req = decode_request(&request_doc(fields)).ok()?;
    handle(&req, b).ok().map(|j| strip(&j).render())
}

/// The requests of pass `p`, with their references. `names` are the
/// paper workloads the simulate and timing requests name.
pub fn plan(seed: u64, p: u64, names: &[String], b: &Budgets) -> Vec<Planned> {
    let pick = |stream: u64, n: usize| (mix(seed, 2000 + p, stream) % n as u64) as usize;
    let mut cold = Vec::new();
    let mut edited = Vec::new();
    for (j, (_, shape)) in CLASSES.iter().enumerate() {
        let (mut k, _, _) = random_program(mix(seed, 1000 + p, j as u64), *shape);
        let cfg = COMPILE_CONFIGS[pick(j as u64, COMPILE_CONFIGS.len())];
        let conf = config_json(cfg.orf_entries, lrf_name(&cfg));
        cold.push((print_kernel(&k), conf.clone()));
        edit_one_immediate(&mut k);
        edited.push((print_kernel(&k), conf));
    }
    let alloc = |text: &str, conf: &Json| {
        vec![
            field("op", Json::str("allocate")),
            field("kernel", Json::str(text)),
            field("config", conf.clone()),
        ]
    };
    let mut reqs: Vec<(Kind, Fields)> = Vec::new();
    for (text, conf) in &cold {
        reqs.push((Kind::Cold, alloc(text, conf)));
        reqs.push((
            Kind::Lint,
            vec![
                field("op", Json::str("lint")),
                field("kernel", Json::str(text.as_str())),
            ],
        ));
    }
    for (text, conf) in &edited {
        reqs.push((Kind::Edited, alloc(text, conf)));
    }
    for (text, conf) in &cold {
        reqs.push((Kind::Repeat, alloc(text, conf)));
    }
    let lrfs = ["none", "unified", "split"];
    let rotation = p as usize % names.len();
    reqs.push((
        Kind::Simulate,
        vec![
            field("op", Json::str("simulate")),
            field("workload", Json::str(names[rotation].as_str())),
            field("config", config_json(1 + pick(10, 8), lrfs[pick(11, 3)])),
        ],
    ));
    reqs.push((
        Kind::Timing,
        vec![
            field("op", Json::str("timing")),
            field(
                "workload",
                Json::str(names[(rotation + names.len() / 2) % names.len()].as_str()),
            ),
            field("config", config_json(1 + pick(12, 8), lrfs[pick(13, 3)])),
            field("active_warps", Json::u64([2, 4, 8, 16][pick(14, 4)])),
        ],
    ));
    reqs.into_iter()
        .map(|(kind, fields)| Planned {
            kind,
            expect: reference(&fields, b),
            fields,
        })
        .collect()
}

/// Whether a daemon answer matches its reference payload.
pub fn check(answer: &Answer, expect: &Option<String>) -> bool {
    match (answer, expect) {
        (Ok((j, _)), Some(e)) => &strip(j).render() == e,
        _ => false,
    }
}

/// Sends one planned request; in a traced pass, also times the layers
/// the round trip crosses.
fn send(client: &mut Client, r: &Planned, b: &Budgets, strands: &StrandStore) -> (f64, Answer) {
    let traced = crate::trace::enabled();
    if traced && r.kind == Kind::Cold {
        let text = r
            .fields
            .iter()
            .find_map(|(k, v)| (k == "kernel").then(|| v.as_str()).flatten())
            .expect("an allocate request carries its kernel");
        count("isa.parse.calls", 1.0);
        let _ = span("isa.parse", || rfh_isa::parse_kernel(text));
    }
    let t0 = Instant::now();
    let answer = client.request(r.fields.clone()).map_err(|e| e.to_string());
    let round_trip = t0.elapsed().as_secs_f64() * 1e3;
    if traced {
        if let Ok((payload, cached)) = &answer {
            let doc = request_doc(&r.fields);
            let t = Instant::now();
            let (req_text, resp_text) = span("rfhd.encode", || (doc.render(), payload.render()));
            let _ = span("rfhd.decode", || (parse(&req_text), parse(&resp_text)));
            let mut inside = t.elapsed().as_secs_f64() * 1e3;
            if !cached {
                if let Ok(req) = decode_request(&doc) {
                    let t = Instant::now();
                    let _ = span("rfhd.handle", || handle_with(&req, b, Some(strands)));
                    inside += t.elapsed().as_secs_f64() * 1e3;
                }
            }
            count("rfhd.transport.ms", (round_trip - inside).max(0.0));
            if let Some(stats) = payload.get("stats") {
                let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
                count("alloc.incremental.hits", n("strand_hits"));
                count("alloc.incremental.misses", n("strand_misses"));
            }
        }
    }
    (round_trip, answer)
}

fn stats(endpoint: &Endpoint) -> Option<Json> {
    Client::new(endpoint.clone(), RetryPolicy::default())
        .simple("stats")
        .ok()
        .map(|(j, _)| j)
}

/// Records the change of the daemon's cache and shedding counters.
fn count_stats_delta(before: &Json, after: &Json) {
    let at = |j: &Json, path: &[&str]| {
        path.iter()
            .try_fold(j, |j, k| j.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    for (name, path) in [
        ("rfhd.cache.hits", &["cache", "hits"][..]),
        ("rfhd.cache.misses", &["cache", "misses"]),
        ("rfhd.strand_cache.hits", &["strand_cache", "hits"]),
        ("rfhd.strand_cache.misses", &["strand_cache", "misses"]),
        ("rfhd.shed", &["shed"]),
        ("rfhd.timeouts", &["timeouts"]),
    ] {
        count(name, at(after, path) - at(before, path));
    }
}

fn shutdown(h: ServerHandle) -> Result<(), String> {
    Client::new(h.endpoint.clone(), RetryPolicy::default())
        .simple("shutdown")
        .map_err(|e| e.to_string())?;
    let report = h.join().map_err(|e| e.to_string())?;
    if report.in_flight_at_exit != 0 || report.pool_panics != 0 {
        return Err(format!("unclean drain: {report:?}"));
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome {
        tail_wanted: 99.0,
        ..Default::default()
    };
    // Read before pinning: a pinned thread sees one CPU.
    let workers = jobs();
    let cpu = crate::cpu::lowest();
    // Every thread the daemon starts inherits this thread's pin.
    let pinned = cpu.and_then(crate::cpu::pin);
    // Unique per run, so concurrent runs (and tests) never share a socket.
    static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run_no = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut cfg = ServerConfig::new(Endpoint::Unix(
        out_dir().join(format!("rfhd-{}-{run_no}.sock", std::process::id())),
    ));
    cfg.workers = workers;
    let b = budgets(&cfg);
    let mut handle = None;
    let mut names = Vec::new();
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        names = rfh_workloads::all().into_iter().map(|w| w.name).collect();
        let h = Server::spawn(cfg.clone()).expect("bind the daemon socket");
        Client::new(h.endpoint.clone(), RetryPolicy::default())
            .simple("ping")
            .expect("first reply from the daemon");
        o.setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            shutdown(h).expect("shut down a set-up daemon");
        } else {
            handle = Some(h);
        }
    }
    let h = handle.expect("one daemon is left running");
    let endpoint = h.endpoint.clone();
    let strands: StrandStore = Store::with_capacity(cfg.strand_cache_entries);
    // One rotation cycle names every paper workload once.
    let cycle = names.len();
    let cycles = |seconds: f64| (seconds / CYCLE_SECONDS).ceil().max(1.0) as usize * cycle;
    let passes = if args.trace {
        Passes::Fixed(cycles(args.seconds / 2.0), cycle)
    } else {
        Passes::Fixed(cycles(args.seconds), 0)
    };
    let mut pass_no = 0u64;
    let mut inputs = Vec::new();
    let mut by_kind: BTreeMap<Kind, (usize, f64)> = BTreeMap::new();
    o.measure(args, passes, |traced| {
        // Untimed.
        let reqs = plan(args.seed, pass_no, &names, &b);
        if pass_no == 0 {
            inputs = reqs
                .iter()
                .map(|r| request_doc(&r.fields).render())
                .collect();
        }
        pass_no += 1;
        let before = if traced { stats(&endpoint) } else { None };
        let mut client = Client::new(endpoint.clone(), RetryPolicy::default());
        let start = Instant::now();
        let answers: Vec<(f64, Answer)> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                set_op(i as u64);
                send(&mut client, r, &b, &strands)
            })
            .collect();
        let wall_s = start.elapsed().as_secs_f64();
        if let (Some(before), Some(after)) = (before, stats(&endpoint)) {
            count_stats_delta(&before, &after);
        }
        let mut p = Pass {
            wall_s,
            ..Default::default()
        };
        for (r, (ms, answer)) in reqs.iter().zip(&answers) {
            if !traced {
                let k = by_kind.entry(r.kind).or_default();
                k.0 += 1;
                k.1 += ms;
            }
            p.ops_ms.push(*ms);
            p.attempted += 1;
            p.failed += u64::from(!check(answer, &r.expect));
        }
        p
    });
    if let Err(e) = shutdown(h) {
        eprintln!("rfhd: {e}");
        o.failed += 1;
    }
    drop(pinned);
    let cpu = cpu.map_or("every CPU".to_string(), |c| format!("cpu {c}"));
    o.notes.push(format!(
        "seed {} inputs digest {:016x} (first pass): {} requests per pass, \
         1 closed-loop connection, {} daemon workers, all on {cpu}",
        args.seed,
        digest(inputs.iter().map(String::as_str)),
        inputs.len(),
        cfg.workers
    ));
    let total: f64 = by_kind.values().map(|&(_, ms)| ms).sum();
    let shares: Vec<String> = by_kind
        .iter()
        .map(|(kind, &(n, ms))| {
            format!(
                "{} {n} ({:.1}%)",
                kind.name(),
                100.0 * ms / total.max(1e-12)
            )
        })
        .collect();
    o.notes.push(format!(
        "{} untraced passes; requests and share of request time by kind: {}",
        o.passes_s.len(),
        shares.join(", ")
    ));
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        rfh_workloads::all().into_iter().map(|w| w.name).collect()
    }

    #[test]
    fn an_altered_payload_is_a_failure() {
        let cfg = ServerConfig::new(Endpoint::Unix("unused".into()));
        let reqs = plan(9, 0, &names(), &budgets(&cfg));
        let r = &reqs[0];
        let expect = r.expect.clone().expect("reference allocates");
        let good = parse(&expect).unwrap();
        assert!(check(&Ok((good.clone(), false)), &r.expect));
        let altered = parse(&expect.replacen("\"strands\":", "\"strands\":1", 1)).unwrap();
        assert!(!check(&Ok((altered, false)), &r.expect));
        assert!(!check(&Err("refused".into()), &r.expect));
    }

    #[test]
    fn plans_follow_the_seed() {
        let b = budgets(&ServerConfig::new(Endpoint::Unix("unused".into())));
        let render = |seed| -> Vec<String> {
            plan(seed, 0, &names(), &b)
                .iter()
                .map(|r| request_doc(&r.fields).render())
                .collect()
        };
        assert_eq!(render(4), render(4));
        assert_ne!(render(4), render(5));
    }
}
