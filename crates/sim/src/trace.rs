//! Structured trace export.
//!
//! The paper's methodology is a custom trace-analysis tool over full
//! program executions (§5.1); this sink makes that trace a first-class,
//! machine-readable artifact instead of something each analysis
//! re-derives privately. Every executed warp instruction is recorded
//! together with its resolved [`RegAccess`] list, and the buffer
//! serializes to either:
//!
//! * **JSON lines** ([`TraceExporter::json_lines`]) — one self-contained
//!   object per event, greppable and diffable (the `rfhc trace --json`
//!   golden format);
//! * **Chrome trace** ([`TraceExporter::chrome_trace`]) — a
//!   `chrome://tracing` / Perfetto-loadable timeline with one track per
//!   warp, where each instruction occupies one timeline unit.
//!
//! Both serializers are hand-rolled (the workspace has no serde; strings
//! go through the shared `rfh_testkit::json` writer) and deterministic:
//! records are kept in global issue order, which the barrier-phased
//! executor makes independent of any parallelism knob.

use rfh_isa::access::RegAccess;
use rfh_isa::{InstrRef, Kernel};
use rfh_testkit::json::write_str;

use crate::sink::{InstrEvent, TraceSink};

/// One executed warp instruction, with its resolved accesses.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Global issue sequence number (0-based).
    pub seq: u64,
    /// The issuing warp's global index.
    pub warp: usize,
    /// Position in the kernel.
    pub at: InstrRef,
    /// The instruction's printed form.
    pub op: String,
    /// The strand of the instruction.
    pub strand: u32,
    /// Threads active at issue.
    pub active_mask: u32,
    /// Threads that executed (active ∧ guard).
    pub exec_mask: u32,
    /// The resolved register-file accesses.
    pub accesses: Vec<RegAccess>,
}

/// A [`TraceSink`] that buffers every event for structured export.
#[derive(Debug, Clone)]
pub struct TraceExporter {
    map: Vec<Vec<u32>>,
    records: Vec<TraceRecord>,
}

impl TraceExporter {
    /// Builds an exporter for `kernel` (the strand map labels records).
    pub fn new(kernel: &Kernel) -> Self {
        TraceExporter {
            map: rfh_analysis::strand::segment_ids(kernel),
            records: Vec::new(),
        }
    }

    /// The buffered records, in global issue order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Serializes the trace as JSON lines: one object per record,
    /// newline-terminated, in issue order.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "{{\"seq\":{},\"warp\":{},\"at\":\"{}\",\"strand\":{},\"op\":",
                r.seq, r.warp, r.at, r.strand,
            ));
            write_str(&r.op, &mut out);
            out.push_str(&format!(
                ",\"active\":{},\"exec\":{},\"accesses\":[",
                r.active_mask, r.exec_mask,
            ));
            for (i, a) in r.accesses.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"kind\":\"{}\",\"place\":\"{}\",\"datapath\":\"{}\",\
                     \"reg\":\"{}\",\"slot\":\"{}\",\"width\":{}}}",
                    a.kind,
                    a.place,
                    a.datapath,
                    a.reg,
                    a.slot,
                    32 * a.width.regs(),
                ));
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Serializes the trace in the Chrome trace-event format: one `"X"`
    /// (complete) event per record, one track (`tid`) per warp, each
    /// instruction one microsecond wide at its warp-local position.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut warp_ts: Vec<u64> = Vec::new();
        for (i, r) in self.records.iter().enumerate() {
            if r.warp >= warp_ts.len() {
                warp_ts.resize(r.warp + 1, 0);
            }
            let ts = warp_ts[r.warp];
            warp_ts[r.warp] += 1;
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_str(&r.op, &mut out);
            out.push_str(&format!(
                ",\"cat\":\"strand{}\",\"ph\":\"X\",\"ts\":{ts},\
                 \"dur\":1,\"pid\":0,\"tid\":{},\"args\":{{\"at\":\"{}\",\"seq\":{},\
                 \"accesses\":{}}}}}",
                r.strand,
                r.warp,
                r.at,
                r.seq,
                r.accesses.len(),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// One-line human summary (records, warps, accesses).
    pub fn summary(&self) -> String {
        let warps = self.records.iter().map(|r| r.warp + 1).max().unwrap_or(0);
        let accesses: usize = self.records.iter().map(|r| r.accesses.len()).sum();
        format!(
            "{} events, {} warps, {} register-file accesses",
            self.records.len(),
            warps,
            accesses
        )
    }
}

impl TraceSink for TraceExporter {
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        let seq = self.records.len() as u64;
        self.records.push(TraceRecord {
            seq,
            warp: event.warp,
            at: event.at,
            op: event.instr.to_string(),
            strand: self.map[event.at.block.index()][event.at.index],
            active_mask: event.active_mask,
            exec_mask: event.exec_mask,
            accesses: event.plan.accesses().to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecMode, Launch};
    use crate::mem::GlobalMemory;
    use rfh_alloc::AllocConfig;
    use rfh_energy::EnergyModel;

    fn run(text: &str, cfg: Option<AllocConfig>) -> TraceExporter {
        let mut kernel = rfh_isa::parse_kernel(text).unwrap();
        let mode = match cfg {
            Some(cfg) => {
                rfh_alloc::allocate(&mut kernel, &cfg, &EnergyModel::paper()).unwrap();
                ExecMode::Hierarchy(cfg)
            }
            None => ExecMode::Baseline,
        };
        let mut tx = TraceExporter::new(&kernel);
        let mut mem = GlobalMemory::new(4096);
        execute(&kernel, &Launch::new(1, 64), &mut mem, mode, &mut [&mut tx]).unwrap();
        tx
    }

    const KERNEL: &str = "
.kernel t
BB0:
  mov r0, %tid.x
  iadd r1 r0, 1
  st.global r0, r1
  exit
";

    #[test]
    fn records_follow_issue_order() {
        let tx = run(KERNEL, None);
        assert_eq!(tx.records().len(), 8, "4 instrs x 2 warps");
        for (i, r) in tx.records().iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn json_lines_shape() {
        let tx = run(KERNEL, Some(AllocConfig::two_level(3)));
        let json = tx.json_lines();
        assert_eq!(json.lines().count(), tx.records().len());
        for line in json.lines() {
            assert!(line.starts_with("{\"seq\":"), "line: {line}");
            assert!(line.ends_with("]}"), "line: {line}");
        }
        assert!(
            json.contains("\"place\":\"ORF"),
            "allocated kernel hits the ORF"
        );
        assert!(json.contains("\"kind\":\"write\""));
    }

    #[test]
    fn chrome_trace_shape() {
        let tx = run(KERNEL, None);
        let chrome = tx.chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.trim_end().ends_with("}"));
        assert_eq!(
            chrome.matches("\"ph\":\"X\"").count(),
            tx.records().len(),
            "one complete event per record"
        );
        assert!(
            chrome.contains("\"tid\":1"),
            "second warp has its own track"
        );
    }

    #[test]
    fn reruns_are_byte_identical() {
        let a = run(KERNEL, Some(AllocConfig::two_level(3)));
        let b = run(KERNEL, Some(AllocConfig::two_level(3)));
        assert_eq!(a.json_lines(), b.json_lines());
        assert_eq!(a.chrome_trace(), b.chrome_trace());
    }

    #[test]
    fn summary_counts() {
        let tx = run(KERNEL, None);
        let s = tx.summary();
        assert!(s.contains("8 events"), "{s}");
        assert!(s.contains("2 warps"), "{s}");
    }
}
