//! Metric definitions and the report renderer.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two lists identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::guard::Guard;
use crate::stats::{median, quantile, tail_percentile};
use crate::trace::{covered_ns, totals_ms, Span};
use crate::{Args, Outcome};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["figures", "compile", "daemon", "timing"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("energy_norm", "ratio"),
    ("mrf_read_frac", "ratio"),
    ("norm_runtime_8", "ratio"),
];

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Total milliseconds of spans with this name, per traced pass.
    Span(&'static str),
    /// A counter, per traced pass.
    Count(&'static str),
    /// `hits / (hits + misses)` of two counters.
    Ratio(&'static str, &'static str),
    /// Traced over untraced median pass time, minus one.
    Overhead,
    /// Share of traced pass time that no span of a `Source::Span` layer
    /// covers.
    Unattributed,
}

/// Per-layer metrics: name, unit, source.
pub const PER_LAYER: &[(&str, &str, Source)] = &[
    ("isa.parse.ms", "ms", Source::Span("isa.parse")),
    ("isa.parse.calls", "count", Source::Count("isa.parse.calls")),
    ("isa.validate.ms", "ms", Source::Span("isa.validate")),
    ("isa.print.ms", "ms", Source::Span("isa.print")),
    (
        "analysis.dom_liveness.ms",
        "ms",
        Source::Span("analysis.dom_liveness"),
    ),
    ("analysis.strand.ms", "ms", Source::Span("analysis.strand")),
    (
        "analysis.strand.strands",
        "count",
        Source::Count("analysis.strand.strands"),
    ),
    ("analysis.absint.ms", "ms", Source::Span("analysis.absint")),
    ("lint.ms", "ms", Source::Span("lint")),
    ("lint.findings", "count", Source::Count("lint.findings")),
    ("alloc.ms", "ms", Source::Span("alloc")),
    ("alloc.calls", "count", Source::Count("alloc.calls")),
    ("alloc.demoted", "count", Source::Count("alloc.demoted")),
    ("alloc.validate.ms", "ms", Source::Span("alloc.validate")),
    (
        "alloc.incremental.hit_ratio",
        "ratio",
        Source::Ratio("alloc.incremental.hits", "alloc.incremental.misses"),
    ),
    ("sim.exec.ms", "ms", Source::Span("sim.exec")),
    ("sim.exec.calls", "count", Source::Count("sim.exec.calls")),
    (
        "sim.exec.warp_instr",
        "count",
        Source::Count("sim.exec.warp_instr"),
    ),
    ("sim.counts.ms", "ms", Source::Count("sim.counts.ms")),
    ("sim.rfc.ms", "ms", Source::Count("sim.rfc.ms")),
    (
        "workloads.verify.ms",
        "ms",
        Source::Span("workloads.verify"),
    ),
    (
        "sim.trace_capture.ms",
        "ms",
        Source::Span("sim.trace_capture"),
    ),
    ("sim.timing.ms", "ms", Source::Span("sim.timing")),
    (
        "sim.timing.replays",
        "count",
        Source::Count("sim.timing.replays"),
    ),
    (
        "sim.timing.cycles",
        "count",
        Source::Count("sim.timing.cycles"),
    ),
    (
        "sim.timing.reference.ms",
        "ms",
        Source::Span("sim.timing.reference"),
    ),
    ("sim.multi_sm.ms", "ms", Source::Span("sim.multi_sm")),
    ("experiments.ctx.ms", "ms", Source::Span("experiments.ctx")),
    (
        "experiments.characterize.ms",
        "ms",
        Source::Span("experiments.characterize"),
    ),
    (
        "experiments.fig2.ms",
        "ms",
        Source::Span("experiments.fig2"),
    ),
    (
        "experiments.fig11.ms",
        "ms",
        Source::Span("experiments.fig11"),
    ),
    (
        "experiments.fig12.ms",
        "ms",
        Source::Span("experiments.fig12"),
    ),
    (
        "experiments.fig13.ms",
        "ms",
        Source::Span("experiments.fig13"),
    ),
    (
        "experiments.fig14.ms",
        "ms",
        Source::Span("experiments.fig14"),
    ),
    (
        "experiments.fig15.ms",
        "ms",
        Source::Span("experiments.fig15"),
    ),
    (
        "experiments.encoding.ms",
        "ms",
        Source::Span("experiments.encoding"),
    ),
    (
        "experiments.perf.ms",
        "ms",
        Source::Span("experiments.perf"),
    ),
    (
        "experiments.limit.ms",
        "ms",
        Source::Span("experiments.limit"),
    ),
    (
        "experiments.ablation.ms",
        "ms",
        Source::Span("experiments.ablation"),
    ),
    (
        "experiments.ctx.kernels.hit_ratio",
        "ratio",
        Source::Ratio("ctx.kernels.hits", "ctx.kernels.misses"),
    ),
    (
        "experiments.ctx.sw.hit_ratio",
        "ratio",
        Source::Ratio("ctx.sw.hits", "ctx.sw.misses"),
    ),
    (
        "experiments.ctx.hw.hit_ratio",
        "ratio",
        Source::Ratio("ctx.hw.hits", "ctx.hw.misses"),
    ),
    ("rfhd.encode.ms", "ms", Source::Span("rfhd.encode")),
    ("rfhd.decode.ms", "ms", Source::Span("rfhd.decode")),
    ("rfhd.handle.ms", "ms", Source::Span("rfhd.handle")),
    (
        "rfhd.transport.ms",
        "ms",
        Source::Count("rfhd.transport.ms"),
    ),
    (
        "rfhd.cache.hit_ratio",
        "ratio",
        Source::Ratio("rfhd.cache.hits", "rfhd.cache.misses"),
    ),
    (
        "rfhd.strand_cache.hit_ratio",
        "ratio",
        Source::Ratio("rfhd.strand_cache.hits", "rfhd.strand_cache.misses"),
    ),
    ("rfhd.shed", "count", Source::Count("rfhd.shed")),
    ("rfhd.timeouts", "count", Source::Count("rfhd.timeouts")),
    ("trace.overhead_frac", "ratio", Source::Overhead),
    ("trace.unattributed_frac", "ratio", Source::Unattributed),
];

fn end_to_end(o: &Outcome, g: &Guard) -> Vec<(&'static str, f64)> {
    let tail = tail_percentile(o.ops_ms.len(), o.tail_wanted);
    vec![
        ("setup_s", median(&o.setup_s)),
        ("run_s", median(&o.passes_s)),
        ("ops_per_s", median(&o.pass_ops_per_s)),
        ("op_p50_ms", median(&o.ops_ms)),
        ("op_tail_ms", quantile(&o.ops_ms, tail / 100.0)),
        ("peak_rss_mb", o.peak_rss_mb),
        ("energy_norm", g.energy_norm),
        ("mrf_read_frac", g.mrf_read_frac),
        ("norm_runtime_8", g.norm_runtime_8),
    ]
}

fn per_layer(
    o: &Outcome,
    spans: &[Span],
    counts: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    let passes = o.traced_passes_s.len().max(1) as f64;
    let ms = totals_ms(spans);
    let count = |n: &str| counts.get(n).copied().unwrap_or(0.0);
    let traced_ns: f64 = o.traced_passes_s.iter().sum::<f64>() * 1e9;
    // Only spans of the layers declared above count as covered: the
    // benchmark's helper spans (a daemon round trip, a counted execution)
    // are not layers of their own.
    let named: Vec<Span> = spans
        .iter()
        .filter(|s| {
            PER_LAYER
                .iter()
                .any(|&(_, _, src)| matches!(src, Source::Span(n) if n == s.name))
        })
        .cloned()
        .collect();
    PER_LAYER
        .iter()
        .map(|&(name, _, src)| {
            let v = match src {
                Source::Span(s) => ms.get(s).copied().unwrap_or(0.0) / passes,
                Source::Count(c) => count(c) / passes,
                Source::Ratio(h, m) => {
                    let (h, m) = (count(h), count(m));
                    if h + m > 0.0 {
                        h / (h + m)
                    } else {
                        0.0
                    }
                }
                Source::Overhead => {
                    median(&o.traced_passes_s) / median(&o.passes_s).max(1e-12) - 1.0
                }
                Source::Unattributed => {
                    (1.0 - covered_ns(&named) as f64 / traced_ns.max(1.0)).max(0.0)
                }
            };
            (name, v)
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, u)| u)
}

/// Renders the human-readable lines and the final JSON line.
pub fn render(
    args: &Args,
    o: &Outcome,
    guard: Option<&Guard>,
    spans: &[Span],
    counts: &BTreeMap<&'static str, f64>,
) -> String {
    let values = match guard {
        Some(g) => end_to_end(o, g),
        None => per_layer(o, spans, counts),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    for note in &o.notes {
        let _ = writeln!(out, "  {note}");
    }
    for (name, v) in &values {
        let _ = writeln!(out, "  {name:<36} {v:>16.6} {}", unit_of(name));
    }
    let tail = tail_percentile(o.ops_ms.len(), o.tail_wanted);
    let beyond = (o.ops_ms.len() as f64 * (1.0 - tail / 100.0)).floor();
    let _ = writeln!(
        out,
        "  op_tail_ms is p{tail} of {} ops ({beyond} beyond); {} untraced and {} traced passes",
        o.ops_ms.len(),
        o.passes_s.len(),
        o.traced_passes_s.len()
    );
    let _ = writeln!(
        out,
        "  pass seconds p10 {:.6} p50 {:.6} p90 {:.6}",
        quantile(&o.passes_s, 0.1),
        quantile(&o.passes_s, 0.5),
        quantile(&o.passes_s, 0.9)
    );
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  failed_frac {failed_frac:.6} ratio ({} of {} outputs)",
        o.failed, o.attempted
    );
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(*v),
                unit_of(name)
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    );
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_rfhd::json::{parse, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn only_declared_layer_spans_count_as_covered() {
        let o = Outcome {
            passes_s: vec![1.0],
            traced_passes_s: vec![1.0],
            ..Default::default()
        };
        let at = |name, start_ns, end_ns| Span {
            name,
            start_ns,
            end_ns,
            id: 0,
            parent: 0,
            op: 0,
        };
        // A declared layer covers a quarter of the pass; a helper span
        // around the rest covers nothing.
        let spans = [
            at("lint", 0, 250_000_000),
            at("sim.exec_counted", 250_000_000, 1_000_000_000),
        ];
        let values = per_layer(&o, &spans, &BTreeMap::new());
        let unattributed = values
            .iter()
            .find(|(n, _)| *n == "trace.unattributed_frac")
            .unwrap()
            .1;
        assert!((unattributed - 0.75).abs() < 1e-9, "{unattributed}");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = std::fs::read_to_string(crate::repo_root().join("BENCHMARK.json")).unwrap();
        let doc = parse(&text).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        assert_eq!(declared(&doc, "per_layer"), layers);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
