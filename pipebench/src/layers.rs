//! Per-layer metrics from the traced phase's spans.
//!
//! Every `_ms` metric is the per-call median of one span name, and its
//! `.share` is the span's total self time — its duration less the part
//! its child spans cover — as a share of the total op time, the summed
//! duration of all root spans.

use std::collections::{BTreeMap, HashMap};

use crate::span::Span;
use crate::{median, Metric};

/// Every span name the benchmark records, `<crate dir>.<call>`.
const SPANS: [&str; 24] = [
    "cli.analyze",
    "cli.analyze_stream",
    "trace.decode",
    "trace.text_decode",
    "trace.reduce_checked",
    "trace.reduce_windows",
    "trace.scan_pass",
    "trace.fold_pass",
    "trace.window_pass",
    "cli.simulate_reduce",
    "stream.stream_reduce",
    "cli.simulate_out",
    "workloads.build",
    "mpisim.horizon",
    "mpisim.run",
    "trace.encode",
    "core.analyze",
    "core.evolution",
    "viz.render",
    "viz.render_evolution",
    "cli.push",
    "serve.connect",
    "serve.push_file",
    "serve.query",
];

/// Throughputs: (metric, span, unit, divisor turning work into the
/// unit's numerator).
const RATES: [(&str, &str, &str, f64); 3] = [
    (
        "trace.decode_mib_per_s",
        "trace.decode",
        "MiB/s",
        1_048_576.0,
    ),
    ("mpisim.events_per_s", "mpisim.run", "1/s", 1.0),
    (
        "serve.ingest_mib_per_s",
        "serve.push_file",
        "MiB/s",
        1_048_576.0,
    ),
];

/// Metrics only a workload computes: (name, unit).
const EXTRAS: [(&str, &str); 6] = [
    ("stream.reduce_over_run", "ratio"),
    ("serve.salvaged", "count"),
    ("serve.resumed", "count"),
    ("serve.rejected", "count"),
    ("serve.spool_mib", "MiB"),
    ("tracing.overhead_pct", "%"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for s in SPANS {
        out.push((format!("{s}_ms"), "ms"));
        out.push((format!("{s}.share"), "ratio"));
    }
    for (name, _, unit, _) in RATES {
        out.push((name.to_string(), unit));
    }
    out.push(("viz.report_kib".to_string(), "KiB"));
    for (name, unit) in EXTRAS {
        out.push((name.to_string(), unit));
    }
    out
}

/// Self time of each span, in nanoseconds, keyed by span id.
fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name call count, durations in ms and total self time in ns.
fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (Vec<f64>, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e6);
        e.1 += selfs[&s.id];
    }
    out
}

fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// The span-derived per-layer metrics.
pub(crate) fn per_layer(spans: &[Span]) -> Vec<Metric> {
    let total = root_ns(spans) as f64;
    let by = by_name(spans);
    let mut out = Vec::new();
    for (name, (durs, self_ns)) in &by {
        let n = durs.len() as u64;
        out.push(Metric::new(format!("{name}_ms"), median(durs), "ms", n));
        out.push(Metric::new(
            format!("{name}.share"),
            *self_ns as f64 / total,
            "ratio",
            n,
        ));
    }
    for (metric, name, unit, div) in RATES {
        let (work, ns, n) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64, 0u64), |(w, t, n), s| {
                (w + s.work, t + s.dur_ns(), n + 1)
            });
        out.push(Metric::new(
            metric,
            work as f64 / div / (ns as f64 / 1e9),
            unit,
            n,
        ));
    }
    let kib: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "viz.render")
        .map(|s| s.work as f64 / 1024.0)
        .collect();
    out.push(Metric::new(
        "viz.report_kib",
        median(&kib),
        "KiB",
        kib.len() as u64,
    ));
    out
}

/// Puts `measured` in [`names`] order, adding every metric the run did
/// not exercise as 0 with no samples.
pub(crate) fn complete(measured: Vec<Metric>) -> Vec<Metric> {
    let mut by: HashMap<String, Metric> =
        measured.into_iter().map(|m| (m.name.clone(), m)).collect();
    names()
        .into_iter()
        .map(|(name, unit)| {
            by.remove(&name)
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0))
        })
        .collect()
}

/// One line per span name: calls, median, total and self time, share.
pub(crate) fn span_table(spans: &[Span]) -> Vec<String> {
    let total = root_ns(spans) as f64;
    let mut lines = vec![format!(
        "  {:24} {:>6} {:>11} {:>11} {:>11} {:>7}",
        "span", "calls", "median_ms", "total_ms", "self_ms", "share"
    )];
    for (name, (durs, self_ns)) in by_name(spans) {
        lines.push(format!(
            "  {:24} {:>6} {:>11.3} {:>11.1} {:>11.1} {:>7.4}",
            name,
            durs.len(),
            median(&durs),
            durs.iter().sum::<f64>(),
            self_ns as f64 / 1e6,
            self_ns as f64 / total
        ));
    }
    lines
}
