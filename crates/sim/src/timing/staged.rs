//! The default timing engine ([`super::Engine::Staged`]): one concrete
//! scheduler loop over plain data. Each cycle it retires completed bank
//! reads, issues the first ready warp from the round-robin pointer (or
//! deschedules the first warp blocked on a long-latency result), parks
//! barrier arrivals until their CTA releases, refills the active set
//! lowest warp first, and fast-forwards over idle cycles. Under
//! [`BankPolicy::Ideal`] it computes exactly what [`super::reference`]
//! does (`tests/timing_differential.rs`); `tests/timing_banks.rs` pins
//! [`BankPolicy::Arbitrated`].

use std::collections::VecDeque;

use rfh_isa::Unit;

use super::{
    pending_latency, BankPolicy, DeadlockSnapshot, SchedPolicy, TimingConfig, TimingError,
    TimingResult, TraceOp, WarpSnapshot,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Active,
    Pending { resume: u64 },
    AtBarrier,
    Done,
}

/// One warp's scheduler state and register scoreboard.
struct Warp {
    /// Trace position of the next instruction to issue.
    pc: usize,
    phase: Phase,
    /// Cycle each register's pending result is ready.
    reg_ready: Vec<u64>,
    /// Whether each register's pending producer is long-latency.
    long: Vec<bool>,
    /// Descheduled at least once (read only by the deadlock snapshot).
    descheduled: bool,
}

impl Warp {
    /// The cycle all of `op`'s sources are ready (0 when none).
    fn ready_at(&self, op: &TraceOp) -> u64 {
        op.srcs
            .iter()
            .flatten()
            .map(|r| self.reg_ready[*r as usize])
            .max()
            .unwrap_or(0)
    }

    /// Whether a not-yet-ready source is fed by a long-latency producer
    /// (the two-level deschedule trigger).
    fn blocked_on_long(&self, op: &TraceOp, now: u64) -> bool {
        op.srcs
            .iter()
            .flatten()
            .any(|r| self.reg_ready[*r as usize] > now && self.long[*r as usize])
    }

    /// Issues `op` at `now`: clears satisfied long-latency marks and posts
    /// destination ready times. `extra` is the result delay from bank-read
    /// serialization (0 under the ideal MRF).
    fn issue(&mut self, op: &TraceOp, now: u64, extra: u64) {
        for r in op.srcs.iter().flatten() {
            if self.reg_ready[*r as usize] <= now {
                self.long[*r as usize] = false;
            }
        }
        for d in op.dsts.iter().flatten() {
            self.reg_ready[*d as usize] = now + op.latency + extra;
            self.long[*d as usize] = op.long;
        }
        self.pc += 1;
    }
}

/// Slot of a shared quarter-rate datapath (SFU/MEM/TEX) in the free-at
/// array; the ALU and control issue at full rate and have none.
fn shared_slot(unit: Unit) -> Option<usize> {
    match unit {
        Unit::Sfu => Some(0),
        Unit::Mem => Some(1),
        Unit::Tex => Some(2),
        _ => None,
    }
}

/// The bank-arbitrated MRF ([`BankPolicy::Arbitrated`]).
///
/// Registers interleave across single-ported banks (`reg % banks`), and
/// each bank grants one read per cycle in arrival order. A bank's
/// operand buffer holds the completion cycles of up to `depth` granted
/// reads; issue stalls while a bank the instruction reads has too few
/// free slots. The serialization delay lands on the instruction's result
/// latency, so dependents see their operands later without the scheduler
/// blocking. Reads of one op beyond `depth` serialize but are not
/// buffered (see `docs/TIMING.md`).
struct Banks {
    depth: usize,
    /// Per-bank completion cycles of buffered reads, oldest first.
    pending: Vec<VecDeque<u64>>,
    /// Per-bank completion cycle of the last granted read.
    tails: Vec<u64>,
}

impl Banks {
    /// `op`'s reads per bank as `(bank, reads)`, one per distinct bank.
    fn reads(&self, op: &TraceOp) -> impl Iterator<Item = (usize, usize)> {
        let mut out = [(0, 0); 3];
        for r in op.srcs.iter().flatten() {
            let bank = *r as usize % self.tails.len();
            // Entries fill in order, so this finds the bank's entry or
            // the first unused one.
            if let Some(e) = out.iter_mut().find(|e| e.1 == 0 || e.0 == bank) {
                *e = (bank, e.1 + 1);
            }
        }
        out.into_iter().filter(|&(_, n)| n > 0)
    }

    /// The cycle a needed operand-buffer slot next frees up, or 0 when
    /// every bank `op` reads has room for its reads.
    fn gate(&self, op: &TraceOp) -> u64 {
        self.reads(op)
            .filter(|&(b, n)| self.depth - self.pending[b].len() < n.min(self.depth))
            .filter_map(|(b, _)| self.pending[b].front().copied())
            .max()
            .unwrap_or(0)
    }

    /// Grants `op`'s reads at `now` and returns the extra result latency
    /// of their serialization (0 when every read hit an idle bank).
    fn issue(&mut self, op: &TraceOp, now: u64) -> u64 {
        let mut extra = 0;
        for (b, n) in self.reads(op) {
            let start = self.tails[b].max(now);
            let done = start + n as u64;
            self.tails[b] = done;
            // One grant per cycle: the i-th read completes at start + i.
            // Reads beyond the free slots are serialized but not queued.
            let room = self.depth - self.pending[b].len();
            self.pending[b].extend((1..=n.min(room) as u64).map(|i| start + i));
            extra = extra.max(done - (now + 1));
        }
        extra
    }

    /// Drops reads that completed by `now`.
    fn retire(&mut self, now: u64) {
        for q in &mut self.pending {
            while q.front().is_some_and(|&done| done <= now) {
                q.pop_front();
            }
        }
    }
}

/// Admits pending warps whose resume cycle has come, lowest warp first,
/// until the active set holds `slots` warps.
fn refill(warps: &mut [Warp], active: &mut Vec<usize>, slots: usize, now: u64) {
    for (wi, w) in warps.iter_mut().enumerate() {
        if active.len() == slots {
            break;
        }
        if matches!(w.phase, Phase::Pending { resume } if resume <= now) {
            w.phase = Phase::Active;
            active.push(wi);
        }
    }
}

/// Replays captured traces through the scheduler.
///
/// Semantics are documented on [`super::simulate_timing`]; this engine is
/// the default ([`super::Engine::Staged`]).
pub(super) fn run(
    traces: &[Vec<TraceOp>],
    cta_of: &dyn Fn(usize) -> usize,
    config: &TimingConfig,
) -> Result<TimingResult, TimingError> {
    let n = traces.len();
    let max_reg = traces
        .iter()
        .flatten()
        .flat_map(|op| op.dsts.iter().chain(op.srcs.iter()).flatten())
        .copied()
        .max()
        .unwrap_or(0) as usize
        + 1;
    let cta: Vec<usize> = (0..n).map(cta_of).collect();
    // An empty trace starts Done, so the issue scan never indexes it.
    let mut warps: Vec<Warp> = traces
        .iter()
        .map(|trace| Warp {
            pc: 0,
            phase: if trace.is_empty() {
                Phase::Done
            } else {
                Phase::Pending { resume: 0 }
            },
            reg_ready: vec![0; max_reg],
            long: vec![false; max_reg],
            descheduled: false,
        })
        .collect();
    let mut unretired = traces.iter().filter(|t| !t.is_empty()).count();

    let slots = if config.two_level {
        config.active_warps.min(n)
    } else {
        n
    };
    let mut barrier_arrived = vec![0usize; cta.iter().max().map_or(0, |c| c + 1)];
    let mut banks = match config.bank_policy {
        BankPolicy::Ideal => None,
        BankPolicy::Arbitrated { banks, depth } => Some(Banks {
            depth,
            pending: vec![VecDeque::with_capacity(depth); banks],
            tails: vec![0; banks],
        }),
    };
    // Free-at cycle of each shared datapath, indexed by `shared_slot`.
    let mut unit_free = [0u64; 3];

    let mut active: Vec<usize> = Vec::with_capacity(slots);
    let mut rr: usize = 0;
    let (mut now, mut deschedules) = (0u64, 0u64);

    refill(&mut warps, &mut active, slots, now);

    while unretired > 0 {
        if now > config.max_cycles {
            return Err(TimingError::CycleBudget {
                limit: config.max_cycles,
            });
        }
        banks.iter_mut().for_each(|b| b.retire(now));

        // Issue scan: the first schedulable warp from the round-robin
        // pointer wins the single issue port.
        let len = active.len();
        let mut issue: Option<(usize, usize)> = None;
        let mut desched: Option<(usize, u64)> = None;
        for k in 0..len {
            let wi = active[(rr + k) % len];
            let w = &warps[wi];
            debug_assert_eq!(w.phase, Phase::Active);
            let op = &traces[wi][w.pc];
            let ready = w.ready_at(op);
            let gate = banks.as_ref().map_or(0, |b| b.gate(op));
            if ready.max(gate) > now {
                if config.two_level && w.blocked_on_long(op, now) {
                    desched = Some((wi, ready));
                    break;
                }
                continue; // short stall: wait in place
            }
            if shared_slot(op.unit).is_some_and(|s| unit_free[s] > now) {
                continue;
            }
            issue = Some((k, wi));
            break;
        }

        let mut release_cta: Option<usize> = None;
        if let Some((k, wi)) = issue {
            let op = traces[wi][warps[wi].pc];
            let extra = banks.as_mut().map_or(0, |b| b.issue(&op, now));
            warps[wi].issue(&op, now, extra);
            if let Some(s) = shared_slot(op.unit) {
                unit_free[s] = now + config.machine.shared_issue_cycles;
            }
            rr = match config.policy {
                SchedPolicy::RoundRobin => (rr + k + 1) % len,
                SchedPolicy::Greedy => 0,
            };

            if warps[wi].pc == traces[wi].len() {
                warps[wi].phase = Phase::Done;
                unretired -= 1;
                active.retain(|&a| a != wi);
            } else if op.barrier {
                let c = cta[wi];
                warps[wi].phase = Phase::AtBarrier;
                active.retain(|&a| a != wi);
                barrier_arrived[c] += 1;
                let expected = (0..n)
                    .filter(|&x| cta[x] == c && warps[x].phase != Phase::Done)
                    .count();
                if barrier_arrived[c] >= expected {
                    release_cta = Some(c);
                }
            }
        }
        if let Some((wi, resume)) = desched {
            deschedules += 1;
            warps[wi].descheduled = true;
            warps[wi].phase = Phase::Pending { resume };
            active.retain(|&a| a != wi);
        }
        if let Some(c) = release_cta {
            barrier_arrived[c] = 0;
            for (x, w) in warps.iter_mut().enumerate() {
                if cta[x] == c && w.phase == Phase::AtBarrier {
                    w.phase = Phase::Pending { resume: now };
                }
            }
        }
        refill(&mut warps, &mut active, slots, now);

        if issue.is_some() || desched.is_some() || release_cta.is_some() {
            now += 1;
            continue;
        }
        // Nothing happened: fast-forward to the next event.
        let active_events = active.iter().map(|&wi| {
            let (w, op) = (&warps[wi], &traces[wi][warps[wi].pc]);
            let gate = banks.as_ref().map_or(0, |b| b.gate(op));
            let unit = shared_slot(op.unit).map_or(0, |s| unit_free[s]);
            w.ready_at(op).max(gate).max(unit)
        });
        let resumes = warps.iter().filter_map(|w| match w.phase {
            Phase::Pending { resume } => Some(resume),
            _ => None,
        });
        let Some(next_event) = active_events.chain(resumes).map(|t| t.max(now + 1)).min() else {
            let snapshot = DeadlockSnapshot {
                warps: warps
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.phase != Phase::Done)
                    .map(|(wi, w)| WarpSnapshot {
                        warp: wi,
                        cta: cta[wi],
                        pc: w.pc,
                        at_barrier: w.phase == Phase::AtBarrier,
                        descheduled: w.descheduled,
                        pending_latency: pending_latency(traces, wi, w.pc, &w.reg_ready, now),
                    })
                    .collect(),
            };
            return Err(TimingError::Deadlock {
                cycle: now,
                snapshot,
            });
        };
        now = next_event;
        refill(&mut warps, &mut active, slots, now);
    }

    // Every warp retired, so every op of every trace issued.
    Ok(TimingResult {
        cycles: now,
        instructions: traces.iter().map(|t| t.len() as u64).sum(),
        deschedules,
    })
}
