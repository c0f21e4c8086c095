//! Placement validation: proves that allocated kernels are executable.
//!
//! Walks each strand's (forward-edge-only) subgraph tracking the symbolic
//! contents of every ORF entry and LRF bank, and checks that:
//!
//! * every `ORF`/`LRF` read finds exactly the register word the annotation
//!   claims, on **all** paths reaching the read;
//! * entry indices are within the configured sizes;
//! * the LRF is only written by, and read from, the private datapath;
//! * split-LRF reads use the bank matching their operand slot;
//! * no value is expected to survive a strand boundary in an upper level;
//! * no MRF read can observe a stale MRF copy (a whole-kernel freshness
//!   fixpoint: a path whose latest definition skipped the MRF write).
//!
//! Guarded (predicated) writes may or may not execute. A guarded write
//! over an entry already holding the same register word preserves it (both
//! outcomes agree with the architectural register); any other guarded
//! write leaves a *conditional* entry, valid only for reads under the
//! exact same guard — the shape the last-use hint pass produces — and
//! invalidated when the guarding predicate is redefined.
//!
//! This is the only placement checker. [`placement_findings`] recovers
//! after each inconsistency (the offending access is skipped) and returns
//! every one, attributed to its instruction; `rfh-lint` reports them as
//! RFH-L006/RFH-L007. [`validate_placements`] gates every allocation on
//! the first of them.

use std::fmt;

use rfh_analysis::RegSet;
use rfh_isa::access::{AccessKind, AccessPlan, AccessSlot, Datapath, Place};
use rfh_isa::{InstrRef, Kernel, PredGuard, Reg, Slot, Width};

use crate::config::{AllocConfig, LrfMode};

/// Which placement contract a [`Finding`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The LRF contract: shared-datapath accesses, bank/slot mismatches
    /// under the split LRF, 64-bit values, accesses with no LRF
    /// configured, and a bank holding a different value.
    Lrf,
    /// ORF/MRF consistency: entries out of range or holding a different
    /// value, upper-level writes with no destination, and MRF reads that
    /// may observe a stale copy.
    OrfMrf,
}

/// One placement inconsistency, attributed to its instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The instruction whose annotation is inconsistent.
    pub at: InstrRef,
    /// Which contract it breaks.
    pub kind: FindingKind,
    /// Human-readable description, ending with the instruction's text.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.at, self.message)
    }
}

/// Collects findings, suffixing each message with the instruction text.
struct Findings<'k> {
    kernel: &'k Kernel,
    list: Vec<Finding>,
}

impl Findings<'_> {
    fn report(&mut self, at: InstrRef, kind: FindingKind, what: impl fmt::Display) {
        let message = format!("{what} (`{}`)", self.kernel.instr(at));
        self.list.push(Finding { at, kind, message });
    }
}

/// Symbolic contents of one upper-level entry: which register word it
/// mirrors, and under which guard the mirroring holds (`None`: on every
/// lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    reg: Reg,
    guard: Option<PredGuard>,
}

/// Symbolic contents of the upper levels along one path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    orf: Vec<Option<Entry>>,
    lrf: Vec<Option<Entry>>,
}

impl State {
    fn empty(config: &AllocConfig) -> State {
        State {
            orf: vec![None; config.orf_entries],
            lrf: vec![None; config.lrf.banks()],
        }
    }

    fn meet(&mut self, other: &State) {
        for (a, b) in self.orf.iter_mut().zip(&other.orf) {
            if *a != *b {
                *a = None;
            }
        }
        for (a, b) in self.lrf.iter_mut().zip(&other.lrf) {
            if *a != *b {
                *a = None;
            }
        }
    }
}

/// Whether an entry's symbolic contents serve a read of `reg` on an
/// instruction guarded by `guard`: the entry must mirror the same word,
/// unconditionally or under the exact same guard (same predicate, same
/// polarity — then the read only executes on lanes the write reached).
fn entry_serves(entry: Option<Entry>, reg: Reg, guard: Option<PredGuard>) -> bool {
    entry.is_some_and(|en| en.reg == reg && (en.guard.is_none() || en.guard == guard))
}

/// An entry's symbolic contents, as a finding message names them.
fn describe(entry: Option<Entry>) -> String {
    match entry {
        None => "no known value".to_string(),
        Some(Entry { reg, guard: None }) => reg.to_string(),
        Some(Entry {
            reg,
            guard: Some(g),
        }) => format!("{reg} under @{}{}", if g.negated { "!" } else { "" }, g.reg),
    }
}

/// The LRF bank an annotation names under `mode`, or `None` when the
/// annotation's shape does not match the mode.
fn lrf_bank(mode: LrfMode, bank: Option<Slot>) -> Option<usize> {
    match (mode, bank) {
        (LrfMode::Unified, None) => Some(0),
        (LrfMode::Split, Some(s)) => Some(s.index()),
        _ => None,
    }
}

/// Whole-kernel check that no MRF read can observe a *stale* MRF copy —
/// i.e. a register whose latest definition on some path was written only
/// to an upper level. Forward may-be-stale dataflow over blocks.
fn check_mrf_freshness(kernel: &Kernel, plans: &[Vec<AccessPlan>], out: &mut Findings) {
    let num_regs = kernel.num_regs();
    let mut stale_in = vec![RegSet::new(num_regs); kernel.blocks.len()];
    let preds = kernel.predecessors();

    let transfer = |stale: &mut RegSet, b: &rfh_isa::BasicBlock, mut out: Option<&mut Findings>| {
        for (index, (i, plan)) in b.instrs.iter().zip(&plans[b.id.index()]).enumerate() {
            if let Some(out) = out.as_deref_mut() {
                // An MRF-served read (including the MRF half of a fill) of
                // a may-be-stale register is the bug this pass exists for.
                for a in plan.reads() {
                    if a.place == Place::Mrf && stale.contains(a.reg) {
                        out.report(
                            InstrRef { block: b.id, index },
                            FindingKind::OrfMrf,
                            format_args!(
                                "MRF read of {} may observe a stale copy — an earlier \
                                 definition skipped the MRF write",
                                a.reg
                            ),
                        );
                    }
                }
            }
            let writes_mrf = plan.writes_mrf();
            for r in plan.written_words() {
                if writes_mrf {
                    if i.guard.is_none() {
                        stale.remove(*r);
                    }
                    // A guarded MRF write leaves the staleness as-is.
                } else {
                    stale.insert(*r);
                }
            }
        }
    };

    // Fixpoint (may-be-stale is a union/forward problem).
    let mut changed = true;
    while changed {
        changed = false;
        for b in &kernel.blocks {
            let mut inn = RegSet::new(num_regs);
            for p in &preds[b.id.index()] {
                let mut out = stale_in[p.index()].clone();
                transfer(&mut out, kernel.block(*p), None);
                inn.union_with(&out);
            }
            if inn != stale_in[b.id.index()] {
                stale_in[b.id.index()] = inn;
                changed = true;
            }
        }
    }
    // Final checking pass.
    for b in &kernel.blocks {
        let mut stale = stale_in[b.id.index()].clone();
        transfer(&mut stale, b, Some(out));
    }
}

/// Every placement inconsistency in `kernel` under `config`: the
/// freshness findings in block order, then the per-strand findings in
/// program order.
///
/// Strand boundaries come from the `ends_strand` bits already on the
/// instructions (set by `rfh-analysis::strand::mark_strands`); an
/// unallocated kernel (all placements MRF) has no findings.
pub fn placement_findings(kernel: &Kernel, config: &AllocConfig) -> Vec<Finding> {
    // Resolve every instruction's access plan once up front; the freshness
    // fixpoint re-walks blocks many times and the strand walk reuses them.
    let plans: Vec<Vec<AccessPlan>> = kernel
        .blocks
        .iter()
        .map(|b| b.instrs.iter().map(AccessPlan::resolve).collect())
        .collect();
    let mut out = Findings {
        kernel,
        list: Vec::new(),
    };
    check_mrf_freshness(kernel, &plans, &mut out);

    // Strands are runs of consecutive instructions in program order, so a
    // flat program-order index locates an instruction's out-state within
    // its strand.
    let preds = kernel.predecessors();
    let mut block_start = Vec::with_capacity(kernel.blocks.len());
    let mut n = 0;
    for b in &kernel.blocks {
        block_start.push(n);
        n += b.instrs.len();
    }
    let flat = |r: InstrRef| block_start[r.block.index()] + r.index;
    let mut strand_start = 0;
    let mut out_states: Vec<State> = Vec::new();

    for (at, instr) in kernel.iter_instrs() {
        let here = flat(at);
        let plan = &plans[at.block.index()][at.index];

        // ---- in-state ----
        // Meet over the strand's own earlier instructions flowing here; any
        // other source (an earlier strand, or the strand's own closing
        // backedge) is inter-strand, where the upper levels are invalid.
        let mut state: Option<State> = None;
        let mut external = false;
        let mut meet_in = |from: InstrRef| {
            let f = flat(from);
            if f < strand_start || f >= here {
                external = true;
                return;
            }
            let s = &out_states[f - strand_start];
            match &mut state {
                None => state = Some(s.clone()),
                Some(cur) => cur.meet(s),
            }
        };
        if at.index > 0 {
            meet_in(InstrRef {
                block: at.block,
                index: at.index - 1,
            });
        } else {
            for p in &preds[at.block.index()] {
                meet_in(InstrRef {
                    block: *p,
                    index: kernel.block(*p).instrs.len() - 1,
                });
            }
        }
        let mut state = match state {
            Some(s) if !external => s,
            _ => State::empty(config),
        };

        // ---- reads ----
        for a in plan
            .accesses()
            .iter()
            .filter(|a| a.kind != AccessKind::Write)
        {
            let reg = a.reg;
            match (a.kind, a.place) {
                (AccessKind::Fill, Place::Orf(e)) => {
                    if e as usize >= config.orf_entries {
                        out.report(
                            at,
                            FindingKind::OrfMrf,
                            format_args!("fill entry ORF{e} out of range"),
                        );
                    }
                }
                (_, Place::Mrf) | (AccessKind::Fill, _) => {}
                (_, Place::Orf(e)) => {
                    if e as usize >= config.orf_entries {
                        out.report(
                            at,
                            FindingKind::OrfMrf,
                            format_args!("read entry ORF{e} out of range"),
                        );
                    } else if !entry_serves(state.orf[e as usize], reg, instr.guard) {
                        out.report(
                            at,
                            FindingKind::OrfMrf,
                            format_args!(
                                "ORF{e} holds {} but the read expects {reg}",
                                describe(state.orf[e as usize])
                            ),
                        );
                    }
                }
                (_, Place::Lrf(bank)) => {
                    if !config.lrf.enabled() {
                        out.report(at, FindingKind::Lrf, "LRF read but no LRF configured");
                        continue;
                    }
                    if a.datapath == Datapath::Shared {
                        out.report(
                            at,
                            FindingKind::Lrf,
                            "the shared datapath cannot read the LRF",
                        );
                        continue;
                    }
                    let AccessSlot::Src(i) = a.slot else { continue };
                    let Some(b) = lrf_bank(config.lrf, bank) else {
                        out.report(
                            at,
                            FindingKind::Lrf,
                            format_args!("LRF bank annotation does not match {} mode", config.lrf),
                        );
                        continue;
                    };
                    if let Some(s) = bank.filter(|s| s.index() != i as usize) {
                        out.report(
                            at,
                            FindingKind::Lrf,
                            format_args!("split LRF read from bank {s} in operand slot {i}"),
                        );
                    } else if !entry_serves(state.lrf[b], reg, instr.guard) {
                        out.report(
                            at,
                            FindingKind::Lrf,
                            format_args!(
                                "LRF bank {b} holds {} but the read expects {reg}",
                                describe(state.lrf[b])
                            ),
                        );
                    }
                }
            }
        }
        // Fills land after every read of the instruction has been served.
        for a in plan.fills() {
            if let Place::Orf(e) = a.place {
                if let Some(slot) = state.orf.get_mut(e as usize) {
                    *slot = Some(Entry {
                        reg: a.reg,
                        guard: None,
                    });
                }
            }
        }

        // ---- defs ----
        if !plan.written_words().is_empty() {
            // Any redefinition (even a guarded one, conservatively)
            // invalidates stale copies in entries it does not target; the
            // targeted entries are handled by `write` below.
            let orf_base = plan
                .writes()
                .find_map(|a| a.place.orf_entry().map(|e| e as usize));
            let words = plan.written_words().len();
            let target_lrf = plan.writes().find_map(|a| match a.place {
                Place::Lrf(bank) => lrf_bank(config.lrf, bank),
                _ => None,
            });
            for r in plan.written_words() {
                for (e, slot) in state.orf.iter_mut().enumerate() {
                    let targeted = orf_base.is_some_and(|base| e >= base && e < base + words);
                    if !targeted && slot.is_some_and(|en| en.reg == *r) {
                        *slot = None;
                    }
                }
                for (b, slot) in state.lrf.iter_mut().enumerate() {
                    if target_lrf != Some(b) && slot.is_some_and(|en| en.reg == *r) {
                        *slot = None;
                    }
                }
            }
            let guard = instr.guard;
            let write = |slot: &mut Option<Entry>, reg: Reg| match guard {
                None => *slot = Some(Entry { reg, guard: None }),
                Some(g) => match *slot {
                    // A guarded write of the word an unconditional entry
                    // already mirrors preserves it: either outcome still
                    // matches the architectural register.
                    Some(en) if en.reg == reg && en.guard.is_none() => {}
                    // Otherwise the entry is valid only under this guard.
                    _ => {
                        *slot = Some(Entry {
                            reg,
                            guard: Some(g),
                        })
                    }
                },
            };
            if let Some(e) = orf_base {
                if e + words > config.orf_entries {
                    out.report(
                        at,
                        FindingKind::OrfMrf,
                        format_args!("write entry ORF{e} (+{words} wide) out of range"),
                    );
                } else {
                    for a in plan.writes() {
                        if let Place::Orf(entry) = a.place {
                            write(&mut state.orf[entry as usize], a.reg);
                        }
                    }
                }
            }
            for a in plan.writes() {
                let Place::Lrf(bank) = a.place else { continue };
                // Per-value checks run once, on the low word's access.
                if a.slot != AccessSlot::DstWord(0) {
                    continue;
                }
                let misuses = [
                    (!config.lrf.enabled(), "LRF write but no LRF configured"),
                    (
                        a.datapath == Datapath::Shared,
                        "the shared datapath cannot write the LRF",
                    ),
                    (
                        a.width == Width::W64,
                        "64-bit values cannot live in the LRF",
                    ),
                ];
                let mut ok = true;
                for (bad, what) in misuses {
                    if bad {
                        out.report(at, FindingKind::Lrf, what);
                        ok = false;
                    }
                }
                if !ok {
                    continue;
                }
                match lrf_bank(config.lrf, bank) {
                    Some(b) => write(&mut state.lrf[b], a.reg),
                    None => out.report(
                        at,
                        FindingKind::Lrf,
                        format_args!("LRF bank annotation does not match {} mode", config.lrf),
                    ),
                }
            }
        } else if plan.orphan_upper_write() {
            out.report(
                at,
                FindingKind::OrfMrf,
                "upper-level write annotation on an instruction with no destination",
            );
        }

        // Redefining a predicate invalidates every entry whose validity is
        // conditional on it.
        if let Some(p) = instr.pdst {
            for slot in state.orf.iter_mut().chain(state.lrf.iter_mut()) {
                if slot.is_some_and(|en| en.guard.is_some_and(|g| g.reg == p)) {
                    *slot = None;
                }
            }
        }

        out_states.push(state);
        if instr.ends_strand {
            strand_start = here + 1;
            out_states.clear();
        }
    }
    out.list
}

/// Checks every placement annotation in `kernel` for consistency.
///
/// # Errors
///
/// Returns the first of [`placement_findings`], rendered as
/// `BBn[i]: message`.
pub fn validate_placements(kernel: &Kernel, config: &AllocConfig) -> Result<(), String> {
    match placement_findings(kernel, config).first() {
        Some(f) => Err(f.to_string()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_isa::{parse_kernel, BlockId, ReadLoc, Slot, WriteLoc};

    fn at(b: u32, i: usize) -> InstrRef {
        InstrRef {
            block: BlockId::new(b),
            index: i,
        }
    }

    fn two_level() -> AllocConfig {
        AllocConfig::two_level(3)
    }

    #[test]
    fn baseline_kernel_validates() {
        let k = parse_kernel(".kernel b\nBB0:\n  iadd r1 r0, 1\n  exit\n").unwrap();
        validate_placements(&k, &two_level()).unwrap();
        validate_placements(&k, &AllocConfig::baseline()).unwrap();
    }

    #[test]
    fn consistent_orf_pair_validates() {
        let mut k = parse_kernel(
            ".kernel ok\nBB0:\n  iadd r1 r0, 1\n  iadd r2 r1, 1\n  st.global r0, r2\n  exit\n",
        )
        .unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 1,
            also_mrf: false,
        };
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(1);
        validate_placements(&k, &two_level()).unwrap();
    }

    #[test]
    fn rejects_read_of_unwritten_entry() {
        let mut k = parse_kernel(".kernel bad\nBB0:\n  iadd r1 r0, 1\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).read_locs[0] = ReadLoc::Orf(0);
        let e = validate_placements(&k, &two_level()).unwrap_err();
        assert!(e.contains("ORF0"), "{e}");
    }

    #[test]
    fn findings_recover_and_attribute_every_bad_read() {
        let mut k = parse_kernel(
            ".kernel two\nBB0:\n  iadd r1 r0, 1\n  iadd r2 r1, 1\n  iadd r3 r2, 1\n  exit\n",
        )
        .unwrap();
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(0);
        k.instr_mut(at(0, 2)).read_locs[0] = ReadLoc::Lrf(Some(Slot::A));
        let cfg = AllocConfig::three_level(3, true);
        let found = placement_findings(&k, &cfg);
        let sites: Vec<_> = found.iter().map(|f| (f.at, f.kind)).collect();
        assert_eq!(
            sites,
            [
                (at(0, 1), FindingKind::OrfMrf),
                (at(0, 2), FindingKind::Lrf)
            ]
        );
        assert_eq!(
            found[0].message,
            "ORF0 holds no known value but the read expects r1 (`iadd r2 r1, 1`)"
        );
        assert_eq!(
            validate_placements(&k, &cfg).unwrap_err(),
            format!("BB0[1]: {}", found[0].message)
        );
    }

    #[test]
    fn guarded_entry_serves_only_its_own_guard() {
        let text = "
.kernel g
BB0:
  setp.lt p0 r0, 8
  @p0 iadd r1 r0, 1
  @p0 iadd r2 r1, 1
  @!p0 iadd r3 r1, 1
  setp.lt p0 r0, 4
  @p0 iadd r4 r1, 1
  exit
";
        let mut k = parse_kernel(text).unwrap();
        k.instr_mut(at(0, 1)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: true,
        };
        k.instr_mut(at(0, 2)).read_locs[0] = ReadLoc::Orf(0);
        validate_placements(&k, &two_level()).unwrap();
        // The opposite polarity reads lanes the write never reached.
        k.instr_mut(at(0, 3)).read_locs[0] = ReadLoc::Orf(0);
        let found = placement_findings(&k, &two_level());
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("r1 under @p0"), "{found:?}");
        // Redefining the guarding predicate invalidates the entry.
        k.instr_mut(at(0, 3)).read_locs[0] = ReadLoc::Mrf;
        k.instr_mut(at(0, 5)).read_locs[0] = ReadLoc::Orf(0);
        assert_eq!(placement_findings(&k, &two_level())[0].at, at(0, 5));
    }

    #[test]
    fn rejects_wrong_register_in_entry() {
        let mut k =
            parse_kernel(".kernel bad\nBB0:\n  iadd r1 r0, 1\n  iadd r3 r2, 1\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(0); // reads r2, entry holds r1
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn rejects_cross_strand_orf_value() {
        let mut k = parse_kernel(
            "
.kernel cross
BB0:
  iadd r1 r0, 1
  ld.global r2 r0
  iadd r3 r2, r1
  exit
",
        )
        .unwrap();
        // Re-mark strands: the consumer of r2 starts a new strand.
        rfh_analysis::strand::mark_strands(&mut k);
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        k.instr_mut(at(0, 2)).read_locs[1] = ReadLoc::Orf(0); // crosses the boundary
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn rejects_entry_out_of_range() {
        let mut k = parse_kernel(".kernel r\nBB0:\n  iadd r1 r0, 1\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 7,
            also_mrf: false,
        };
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn rejects_shared_lrf_access() {
        let mut k = parse_kernel(".kernel s\nBB0:\n  ld.global r1 r0\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Lrf {
            bank: None,
            also_mrf: false,
        };
        let cfg = AllocConfig::three_level(3, false);
        let e = validate_placements(&k, &cfg).unwrap_err();
        assert!(e.contains("shared datapath"), "{e}");
    }

    #[test]
    fn rejects_split_bank_slot_mismatch() {
        let mut k =
            parse_kernel(".kernel sb\nBB0:\n  iadd r1 r0, 1\n  iadd r2 r3, r1\n  exit\n").unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Lrf {
            bank: Some(Slot::B),
            also_mrf: false,
        };
        // r1 is read in slot B of the second instruction: correct bank…
        k.instr_mut(at(0, 1)).read_locs[1] = ReadLoc::Lrf(Some(Slot::B));
        let cfg = AllocConfig::three_level(3, true);
        validate_placements(&k, &cfg).unwrap();
        // …but claiming bank A for a slot-B read must fail.
        k.instr_mut(at(0, 1)).read_locs[1] = ReadLoc::Lrf(Some(Slot::A));
        assert!(validate_placements(&k, &cfg).is_err());
    }

    #[test]
    fn hammock_same_entry_on_both_sides_validates() {
        // Figure 10c as explicit placements.
        let mut k = parse_kernel(
            "
.kernel h
BB0:
  setp.lt p0 r0, 16
  @p0 bra BB2
BB1:
  iadd r1 r0, 1
  bra BB3
BB2:
  iadd r1 r0, 2
BB3:
  iadd r2 r1, 1
  exit
",
        )
        .unwrap();
        k.instr_mut(at(1, 0)).write_loc = WriteLoc::Orf {
            entry: 2,
            also_mrf: false,
        };
        k.instr_mut(at(2, 0)).write_loc = WriteLoc::Orf {
            entry: 2,
            also_mrf: false,
        };
        k.instr_mut(at(3, 0)).read_locs[0] = ReadLoc::Orf(2);
        validate_placements(&k, &two_level()).unwrap();
        // Different entries on the two sides must fail.
        k.instr_mut(at(2, 0)).write_loc = WriteLoc::Orf {
            entry: 1,
            also_mrf: false,
        };
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn fill_makes_entry_readable() {
        let mut k = parse_kernel(
            ".kernel f\nBB0:\n  iadd r1 r0, 1\n  iadd r2 r0, 2\n  iadd r3 r0, 3\n  exit\n",
        )
        .unwrap();
        k.instr_mut(at(0, 0)).read_locs[0] = ReadLoc::MrfFillOrf(0);
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(0);
        k.instr_mut(at(0, 2)).read_locs[0] = ReadLoc::Orf(0);
        validate_placements(&k, &two_level()).unwrap();
    }

    #[test]
    fn redefinition_invalidates_stale_entry() {
        let mut k = parse_kernel(
            ".kernel st\nBB0:\n  iadd r1 r0, 1\n  mov r1, 7\n  iadd r2 r1, 1\n  exit\n",
        )
        .unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        k.instr_mut(at(0, 2)).read_locs[0] = ReadLoc::Orf(0); // stale after mov
        assert!(validate_placements(&k, &two_level()).is_err());
    }

    #[test]
    fn wide_write_occupies_two_entries() {
        let mut k =
            parse_kernel(".kernel w\nBB0:\n  ld.shared r4.w64 r0\n  iadd r6 r5, 1\n  exit\n")
                .unwrap();
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 1,
            also_mrf: false,
        };
        k.instr_mut(at(0, 1)).read_locs[0] = ReadLoc::Orf(2); // high half
        validate_placements(&k, &two_level()).unwrap();
        // Entry 2 would spill past a 3-entry ORF with a wide write.
        k.instr_mut(at(0, 0)).write_loc = WriteLoc::Orf {
            entry: 2,
            also_mrf: false,
        };
        assert!(validate_placements(&k, &two_level()).is_err());
    }
}

#[cfg(test)]
mod freshness_tests {
    use super::*;
    use rfh_isa::{parse_kernel, WriteLoc};

    /// Regression: a loop-carried value written only to the ORF leaves the
    /// MRF stale for the next iteration's MRF read.
    #[test]
    fn stale_mrf_copy_across_backedge_rejected() {
        let mut k = parse_kernel(
            "
.kernel loopy
BB0:
  mov r5, 0.0f
BB1:
  fmul r8 r5, r5
  fadd r5 r8, 1.0f
  iadd r7 r7, 1
  setp.lt p0 r7, 4
  @p0 bra BB1
BB2:
  st.global r0, r5
  exit
",
        )
        .unwrap();
        rfh_analysis::strand::mark_strands(&mut k);
        let cfg = AllocConfig::two_level(3);
        // fadd r5 written only to the ORF: the next iteration's MRF read
        // of r5 observes the stale init value.
        let at = InstrRef {
            block: rfh_isa::BlockId::new(1),
            index: 1,
        };
        k.instr_mut(at).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: false,
        };
        let e = validate_placements(&k, &cfg).unwrap_err();
        assert!(e.contains("stale"), "{e}");
        // With the dual write it is fine.
        k.instr_mut(at).write_loc = WriteLoc::Orf {
            entry: 0,
            also_mrf: true,
        };
        validate_placements(&k, &cfg).unwrap();
    }
}
