//! The report path every `limba` subcommand ends in: salvage guard →
//! analyzer → renderer, then the optional windows section. Spans wrap
//! the calls into `core` and `viz`.

use limba_analysis::evolution::imbalance_evolution;
use limba_analysis::Analyzer;
use limba_stats::dispersion::DispersionKind;
use limba_stats::rank::RankingCriterion;
use limba_trace::{ReducedTrace, SalvagedTrace, Trace};

use crate::span;

/// `--windows` value of every windowed op.
pub const WINDOWS: usize = 8;

/// Rejects a salvage that recovered no measured time, with the CLI's
/// wording.
fn guard_salvage(salvaged: &SalvagedTrace) -> Result<(), String> {
    let SalvagedTrace { reduced, coverage } = salvaged;
    if coverage.iter().any(|c| !c.complete) && reduced.measurements.total_time() <= 0.0 {
        let truncated = coverage.iter().filter(|c| !c.complete).count();
        return Err(format!(
            "unsalvageable trace: {truncated} of {} ranks truncated and no measured time survives",
            coverage.len()
        ));
    }
    Ok(())
}

/// Guard, analyze with the CLI defaults (euclidean, max, 2 clusters),
/// and render with the coverage section.
pub fn report(salvaged: &SalvagedTrace) -> Result<String, String> {
    guard_salvage(salvaged)?;
    let report = span::within("core.analyze", || {
        Analyzer::new()
            .with_dispersion(DispersionKind::Euclidean)
            .with_criterion(RankingCriterion::Maximum)
            .with_cluster_k(2)
            .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)
    })
    .map_err(|e| e.to_string())?;
    let mut s = span::span("viz.render");
    let text = limba_viz::report::render_with_coverage(&report, &salvaged.coverage);
    s.work(text.len() as u64);
    Ok(text)
}

/// The imbalance-evolution section over pre-sliced windows.
pub fn evolution(sliced: Vec<ReducedTrace>) -> Result<String, String> {
    let matrices: Vec<_> = sliced.into_iter().map(|w| w.measurements).collect();
    let evolution = span::within("core.evolution", || {
        imbalance_evolution(&matrices, DispersionKind::Euclidean, 0.02)
    })
    .map_err(|e| e.to_string())?;
    Ok(span::within("viz.render_evolution", || {
        limba_viz::report::render_evolution(&evolution, WINDOWS)
    }))
}

/// `limba analyze` on a loaded trace: salvaging reduction, report,
/// then (with `windows`) the windowed reduction and its section.
pub fn materialized(trace: &Trace, windows: bool) -> Result<String, String> {
    let salvaged = span::within("trace.reduce_checked", || {
        limba_trace::reduce_checked(trace)
    })
    .map_err(|e| e.to_string())?;
    let mut out = report(&salvaged)?;
    if windows {
        let sliced = span::within("trace.reduce_windows", || {
            limba_trace::reduce_windows(trace, WINDOWS)
        })
        .map_err(|e| e.to_string())?;
        out.push_str(&evolution(sliced)?);
    }
    Ok(out)
}
