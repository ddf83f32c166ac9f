//! Spool replay: turning a run's on-disk bytes into reports.
//!
//! The serving layer never grows a second analysis path. A run's
//! **final** report is produced by replaying its spool through the
//! fold `limba analyze --from-stream` runs — the salvage fold, the
//! default analyzer, the coverage renderer — so the served bytes are
//! byte-for-byte what the offline CLI prints for the same tracefile.
//! The replay is one pass: the salvage fold learns its activity columns
//! as it meets new kinds, in the order a scan pass would list them, so
//! it needs no scan first. A **partial** report (mid-stream
//! disconnect, live query) runs the same pass but closes the fold
//! directly instead of requiring the stream's end chunk, which is
//! precisely the salvage repair: truncated ranks are closed at their
//! last event and flagged in the coverage section. When the fold
//! itself rejects an event past the first chunk, the salvage keeps the
//! prefix before it, and its columns are the kinds that prefix began.
//! The evolution report keeps a scan pass first, because the window
//! fold needs the makespan before its first event.
//!
//! Replay reads the spool in bounded chunks; memory is one chunk
//! buffer plus fold state, never the trace.

use std::path::Path;

use limba_analysis::Analyzer;
use limba_model::ActivitySet;
use limba_stats::dispersion::DispersionKind;
use limba_stats::rank::RankingCriterion;
use limba_trace::{
    Event, SalvageSink, SalvagedTrace, ScanSink, StreamDecoder, StreamScan, TraceError, TraceSink,
    WindowSink,
};
use limba_vfs::Vfs;

use crate::ServeError;

/// Replay chunk size — matches the offline CLI's streaming reads.
const CHUNK: usize = 64 * 1024;

/// Analyzer knobs pinned to the `limba analyze` defaults. The serve
/// layer deliberately exposes no analysis knobs: its contract is
/// byte-identity with the *default* offline analysis.
fn analyzer() -> Analyzer {
    Analyzer::new()
        .with_dispersion(DispersionKind::Euclidean)
        .with_criterion(RankingCriterion::Maximum)
        .with_cluster_k(2)
}

/// Holds back the fold's first error while the decoder reads on, so
/// damage to the container is named wherever it lies, before any error
/// of the fold: the order the whole-buffer reader gives, and the one a
/// scan pass over the spool gave when it ran before the fold. After an
/// error the fold receives nothing more.
struct DecodeFirst<'a> {
    fold: &'a mut dyn TraceSink,
    error: Option<TraceError>,
}

impl DecodeFirst<'_> {
    fn hold(
        &mut self,
        step: impl FnOnce(&mut dyn TraceSink) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        if self.error.is_none() {
            self.error = step(&mut *self.fold).err();
        }
        Ok(())
    }
}

impl TraceSink for DecodeFirst<'_> {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.hold(|fold| fold.begin(processors, region_names))
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        self.hold(|fold| fold.events(events))
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.fold.finish(),
        }
    }
}

/// Feeds the spool through `sink` in one pass. With `strict`, the
/// decoder's own `finish` runs — truncated spools fail exactly like the
/// offline CLI. Without it, errors past the first chunk end the usable
/// prefix, and the sink is closed directly, salvaging whatever it took
/// in before.
fn feed_spool(
    vfs: &dyn Vfs,
    path: &Path,
    sink: &mut dyn TraceSink,
    strict: bool,
) -> Result<(), ServeError> {
    let mut file = vfs.open_read(path)?;
    let mut decoder = StreamDecoder::new();
    let mut held = DecodeFirst {
        fold: sink,
        error: None,
    };
    let mut buf = vec![0u8; CHUNK];
    let mut first = true;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        let fed = decoder.feed(&buf[..n], &mut held);
        if strict {
            fed?;
        } else if first {
            // A header that never decoded, or a fold that failed on
            // the first chunk, leaves nothing to salvage.
            fed?;
            if let Some(e) = held.error.take() {
                return Err(e.into());
            }
        } else if fed.is_err() || held.error.is_some() {
            // Salvage mode: a malformed tail (the stream died
            // mid-write) ends the usable prefix.
            break;
        }
        first = false;
    }
    if strict {
        decoder.finish(&mut held)?;
    } else {
        // Close the fold over whatever arrived: SalvageSink closes
        // every rank's walker at its last event — the truncation
        // repair.
        held.fold.finish()?;
    }
    Ok(())
}

/// Scan pass over a complete spool.
fn scan_spool(vfs: &dyn Vfs, path: &Path) -> Result<StreamScan, ServeError> {
    let mut scan = ScanSink::new();
    feed_spool(vfs, path, &mut scan, true)?;
    scan.into_scan()
        .ok_or_else(|| ServeError::State("stream scan did not complete".into()))
}

/// The one salvage-fold pass over the spool.
fn fold_spool(vfs: &dyn Vfs, path: &Path, strict: bool) -> Result<SalvagedTrace, ServeError> {
    let mut salvage = SalvageSink::new(ActivitySet::standard());
    feed_spool(vfs, path, &mut salvage, strict)?;
    salvage
        .into_salvaged()
        .ok_or_else(|| ServeError::State("stream fold did not complete".into()))
}

/// Rejects a salvage that recovered no measured time — same guard,
/// same wording as the offline CLI.
fn guard_salvage(salvaged: &SalvagedTrace) -> Result<(), ServeError> {
    let SalvagedTrace { reduced, coverage } = salvaged;
    if coverage.iter().any(|c| !c.complete) && reduced.measurements.total_time() <= 0.0 {
        let truncated = coverage.iter().filter(|c| !c.complete).count();
        return Err(ServeError::Trace(TraceError::Malformed {
            detail: format!(
                "unsalvageable trace: {truncated} of {} ranks truncated and no measured time survives",
                coverage.len()
            ),
        }));
    }
    Ok(())
}

fn render(salvaged: &SalvagedTrace) -> Result<String, ServeError> {
    let report = analyzer()
        .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)
        .map_err(|e| ServeError::State(e.to_string()))?;
    Ok(limba_viz::report::render_with_coverage(
        &report,
        &salvaged.coverage,
    ))
}

/// The final report for a **complete** spool: byte-for-byte what
/// `limba analyze <spool> --from-stream` prints.
pub fn complete_report(vfs: &dyn Vfs, spool: &Path) -> Result<String, ServeError> {
    let salvaged = fold_spool(vfs, spool, true)?;
    guard_salvage(&salvaged)?;
    render(&salvaged)
}

/// A salvage-grade report over a **partial** spool (disconnected or
/// still-live run): the pass closes its fold at the last decoded event
/// instead of requiring the end chunk.
pub fn partial_report(vfs: &dyn Vfs, spool: &Path) -> Result<String, ServeError> {
    let salvaged = fold_spool(vfs, spool, false)?;
    guard_salvage(&salvaged)?;
    render(&salvaged)
}

/// The offline imbalance-evolution section over `windows` slices of a
/// complete spool — same pass order and rendering as
/// `limba analyze --from-stream --windows N`.
pub fn evolution_report(vfs: &dyn Vfs, spool: &Path, windows: usize) -> Result<String, ServeError> {
    let scan = scan_spool(vfs, spool)?;
    let mut sink = WindowSink::new(windows, scan.makespan, scan.activities)?;
    feed_spool(vfs, spool, &mut sink, true)?;
    let sliced = sink
        .into_windows()
        .ok_or_else(|| ServeError::State("stream fold did not complete".into()))?;
    let matrices: Vec<_> = sliced.into_iter().map(|w| w.measurements).collect();
    let evolution =
        limba_analysis::evolution::imbalance_evolution(&matrices, DispersionKind::Euclidean, 0.02)
            .map_err(|e| ServeError::State(e.to_string()))?;
    Ok(limba_viz::report::render_evolution(&evolution, windows))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_trace::WriteSink;
    use limba_vfs::StdVfs;
    use std::fs;

    /// Writes a tiny two-rank trace; returns (full bytes, event count).
    fn sample_bytes() -> Vec<u8> {
        let mut out = Vec::new();
        {
            let mut sink = WriteSink::new(&mut out);
            sink.begin(2, &["work".into(), "halo".into()]).unwrap();
            let evs = vec![
                limba_trace::Event::enter(0.0, 0, 0.into()),
                limba_trace::Event::leave(1.0, 0, 0.into()),
                limba_trace::Event::enter(0.0, 1, 0.into()),
                limba_trace::Event::leave(3.0, 1, 0.into()),
                limba_trace::Event::enter(3.0, 1, 1.into()),
                limba_trace::Event::leave(3.5, 1, 1.into()),
            ];
            sink.events(&evs).unwrap();
            sink.finish().unwrap();
        }
        out
    }

    #[test]
    fn complete_report_round_trips() {
        let dir = std::env::temp_dir().join(format!("limba-replay-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let spool = dir.join("complete.trc");
        fs::write(&spool, sample_bytes()).unwrap();
        let report = complete_report(&StdVfs, &spool).unwrap();
        assert!(report.contains("== coarse grain =="), "{report}");
        // A complete spool's partial report matches the final one:
        // nothing needed salvaging.
        assert_eq!(partial_report(&StdVfs, &spool).unwrap(), report);
        fs::remove_file(&spool).unwrap();
    }

    #[test]
    fn truncated_spool_salvages_but_fails_strict() {
        let bytes = sample_bytes();
        let dir = std::env::temp_dir().join(format!("limba-replay-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let spool = dir.join("partial.trc");
        fs::write(&spool, &bytes[..bytes.len() - 21]).unwrap();
        assert!(complete_report(&StdVfs, &spool).is_err());
        let report = partial_report(&StdVfs, &spool).unwrap();
        assert!(report.contains("== coarse grain =="), "{report}");
        fs::remove_file(&spool).unwrap();
    }

    /// A spool of `sends` messages on rank 1 inside one region, with
    /// `first` recorded before them and `last` after; more than one
    /// replay chunk and one decoder batch long.
    fn long_spool(name: &str, first: Event, sends: usize, last: Event) -> std::path::PathBuf {
        let mut out = Vec::new();
        let mut sink = WriteSink::new(&mut out);
        sink.begin(2, &["work".into()]).unwrap();
        let mut events = vec![first, Event::enter(0.0, 1, 0.into())];
        events.extend((0..sends).map(|i| Event::message_send(1.0 + i as f64, 1, 0, 64)));
        events.push(last);
        events.push(Event::leave(1e6, 1, 0.into()));
        sink.events(&events).unwrap();
        sink.finish().unwrap();
        assert!(out.len() > 2 * CHUNK, "{} bytes", out.len());
        let dir = std::env::temp_dir().join(format!("limba-replay-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let spool = dir.join(name);
        fs::write(&spool, out).unwrap();
        spool
    }

    #[test]
    fn container_damage_is_named_before_an_earlier_fold_error() {
        // Event 0 leaves a region it never entered; the last chunk
        // holds a timestamp the decoder rejects.
        let spool = long_spool(
            "damaged.trc",
            Event::leave(0.0, 0, 0.into()),
            6000,
            Event::message_send(f64::NAN, 1, 0, 64),
        );
        let err = complete_report(&StdVfs, &spool).unwrap_err().to_string();
        assert!(err.contains("non-finite event timestamp"), "{err}");
        // Salvage gives up on the fold error in the first chunk.
        let err = partial_report(&StdVfs, &spool).unwrap_err().to_string();
        assert!(err.contains("malformed event #0"), "{err}");
        fs::remove_file(&spool).unwrap();
    }

    #[test]
    fn salvage_keeps_the_prefix_before_a_late_fold_error() {
        // Rank 1's clock goes backwards past the first chunk.
        let spool = long_spool(
            "backwards.trc",
            Event::enter(0.0, 0, 0.into()),
            6000,
            Event::message_send(0.5, 1, 0, 64),
        );
        let err = complete_report(&StdVfs, &spool).unwrap_err().to_string();
        assert!(err.contains("went backwards"), "{err}");
        let report = partial_report(&StdVfs, &spool).unwrap();
        assert!(report.contains("== coarse grain =="), "{report}");
        fs::remove_file(&spool).unwrap();
    }
}
