//! Rendering diagnostics as human-readable lines, deterministic because
//! diagnostics are sorted before rendering. (`rfhc lint --json` renders
//! the machine-readable form through the workspace's JSON writer.)

use std::fmt::Write as _;

use crate::diag::Diagnostic;

/// Renders one diagnostic as a human-readable line:
/// `error[RFH-L001] BB0#2: r1 may be read ...`.
pub fn human_line(kernel_name: &str, d: &Diagnostic) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{}[{}] {}: BB{}",
        d.severity().as_str(),
        d.code.as_str(),
        kernel_name,
        d.block.index()
    );
    if let Some(i) = d.instr {
        let _ = write!(s, "#{i}");
    }
    let _ = write!(s, ": {}", d.message);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use rfh_isa::{BlockId, InstrRef};

    fn sample() -> Diagnostic {
        Diagnostic::at(
            Code::UseBeforeDef,
            InstrRef {
                block: BlockId::new(1),
                index: 2,
            },
            "r3 may be read before it is defined".to_string(),
        )
    }

    #[test]
    fn human_line_format() {
        let line = human_line("k", &sample());
        assert_eq!(
            line,
            "error[RFH-L001] k: BB1#2: r3 may be read before it is defined"
        );
    }

    #[test]
    fn block_level_diagnostic_has_no_instr_suffix() {
        let d = Diagnostic::at_block(Code::UnreachableBlock, BlockId::new(4), "dead".to_string());
        assert_eq!(human_line("k", &d), "warning[RFH-L002] k: BB4: dead");
    }
}
