//! RFH-L006 / RFH-L007 — placement consistency for allocated kernels.
//!
//! Reports every finding of the allocator's own checker,
//! [`rfh_alloc::placement_findings`] — the walk whose first finding
//! [`rfh_alloc::validate_placements`] gates every allocation on — so the
//! lint and the validator cannot disagree about a kernel:
//!
//! * RFH-L006 — LRF contract violations: shared-datapath reads/writes,
//!   bank/slot mismatches under the split LRF, 64-bit values, accesses
//!   with no LRF configured, and a bank holding a different value;
//! * RFH-L007 — ORF/MRF consistency: entries out of range or holding a
//!   different register than annotated, upper-level writes with no
//!   destination, and MRF reads that may observe a stale copy (a path
//!   whose latest definition skipped the MRF write).
//!
//! An unallocated kernel (all placements MRF) passes trivially.

use rfh_alloc::{placement_findings, AllocConfig, FindingKind};
use rfh_isa::Kernel;

use crate::diag::{Code, Diagnostic};

/// Runs the check, appending RFH-L006/RFH-L007 findings to `diags`.
pub(crate) fn check(kernel: &Kernel, config: &AllocConfig, diags: &mut Vec<Diagnostic>) {
    diags.extend(placement_findings(kernel, config).into_iter().map(|f| {
        let code = match f.kind {
            FindingKind::Lrf => Code::LrfMisuse,
            FindingKind::OrfMrf => Code::OrfConflict,
        };
        Diagnostic::at(code, f.at, f.message)
    }));
}
