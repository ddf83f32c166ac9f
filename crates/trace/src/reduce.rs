//! Reduction of traces into measurement matrices.
//!
//! The batch functions here run the stream folds over an in-memory
//! trace. [`reduce`] makes one pass of the trace's events into a
//! [`ReduceSink`] seeded with the standard activities, which learns the
//! trace's extra kinds as it meets them. [`reduce_windows`] first runs
//! a [`ScanSink`] pass, because a [`WindowSink`] must know the makespan
//! before its first event, then one pass into the window fold. The
//! streaming paths run the same folds over decoded frames, so there is
//! one implementation of each reduction.
//!
//! [`ScanSink`]: crate::ScanSink
//! [`ReduceSink`]: crate::ReduceSink
//! [`WindowSink`]: crate::WindowSink

use limba_model::{
    ActivityKind, ActivitySet, CountKind, CountMatrix, CountMatrixBuilder, Measurements,
    MeasurementsBuilder, RegionId,
};

use crate::stream::{drive, scan};
use crate::{Event, EventPayload, ReduceSink, Trace, TraceError, WindowSink};

/// Result of reducing a trace: the timing matrix `t_ijp` and the message
/// counting parameters.
#[derive(Debug, Clone)]
pub struct ReducedTrace {
    /// Wall-clock times per (region, activity, processor).
    pub measurements: Measurements,
    /// Message counts and byte volumes per (region, count kind, processor).
    pub counts: CountMatrix,
}

/// One attributed event from the per-processor walk: either a time
/// interval spent in an activity of a region, or a message count.
///
/// Public so incremental consumers outside this crate (e.g. an online
/// imbalance detector driving a [`SalvageWalker`](crate::SalvageWalker)
/// per rank) can receive exactly the attributions the reductions fold —
/// same state machine, same arithmetic, byte-identical results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attribution {
    /// Time spent in one activity of one region.
    Interval {
        /// Region index the interval is attributed to.
        region: usize,
        /// Activity the interval belongs to.
        kind: ActivityKind,
        /// Interval start time.
        start: f64,
        /// Interval end time.
        end: f64,
    },
    /// A message-counting parameter observation.
    Count {
        /// Region index the count is attributed to.
        region: usize,
        /// Which counter the amount belongs to.
        kind: CountKind,
        /// Counted amount (messages or bytes).
        amount: f64,
        /// Timestamp of the observation.
        at: f64,
    },
}

/// The per-processor attribution state machine of the strict folds
/// ([`ReduceSink`](crate::ReduceSink), [`WindowSink`](crate::WindowSink)),
/// one event at a time via [`ProcWalker::step`].
///
/// Expects a structurally valid, time-ordered stream, which the folds'
/// inline checks guarantee before every step (it panics on malformed
/// input); the lenient counterpart is `SalvageWalker`.
pub(crate) struct ProcWalker {
    stack: Vec<usize>,
    /// Open activity: kind, start time, and the innermost region at its
    /// begin — the attribution target when the region closes before the
    /// activity does.
    current: Option<(ActivityKind, f64, usize)>,
    mark: f64,
}

impl ProcWalker {
    pub(crate) fn new() -> Self {
        ProcWalker {
            stack: Vec::new(),
            current: None,
            mark: 0.0,
        }
    }

    pub(crate) fn step<F: FnMut(Attribution)>(&mut self, e: &Event, sink: &mut F) {
        match e.payload {
            EventPayload::EnterRegion { region } => {
                if let Some(&top) = self.stack.last() {
                    sink(Attribution::Interval {
                        region: top,
                        kind: ActivityKind::Computation,
                        start: self.mark,
                        end: e.time,
                    });
                }
                self.stack.push(region);
                self.mark = e.time;
            }
            EventPayload::LeaveRegion { region } => {
                sink(Attribution::Interval {
                    region,
                    kind: ActivityKind::Computation,
                    start: self.mark,
                    end: e.time,
                });
                self.stack.pop();
                self.mark = e.time;
            }
            EventPayload::BeginActivity { kind } => {
                let top = *self.stack.last().expect("validated: inside a region");
                sink(Attribution::Interval {
                    region: top,
                    kind: ActivityKind::Computation,
                    start: self.mark,
                    end: e.time,
                });
                self.current = Some((kind, e.time, top));
            }
            EventPayload::EndActivity { .. } => {
                let (kind, start, begun_in) =
                    self.current.take().expect("validated: activity open");
                // The innermost region at the end, or the region the
                // activity began in when that region has closed since
                // (as `SalvageWalker` attributes it).
                sink(Attribution::Interval {
                    region: self.stack.last().copied().unwrap_or(begun_in),
                    kind,
                    start,
                    end: e.time,
                });
                self.mark = e.time;
            }
            EventPayload::MessageSend { bytes, .. } => {
                if let Some(&top) = self.stack.last() {
                    sink(Attribution::Count {
                        region: top,
                        kind: CountKind::MessagesSent,
                        amount: 1.0,
                        at: e.time,
                    });
                    sink(Attribution::Count {
                        region: top,
                        kind: CountKind::BytesSent,
                        amount: bytes as f64,
                        at: e.time,
                    });
                }
            }
            EventPayload::MessageRecv { bytes, .. } => {
                if let Some(&top) = self.stack.last() {
                    sink(Attribution::Count {
                        region: top,
                        kind: CountKind::MessagesReceived,
                        amount: 1.0,
                        at: e.time,
                    });
                    sink(Attribution::Count {
                        region: top,
                        kind: CountKind::BytesReceived,
                        amount: bytes as f64,
                        at: e.time,
                    });
                }
            }
        }
    }
}

/// Reduces a trace to per-(region, activity, processor) wall-clock
/// times and message counts.
///
/// Attribution rules:
///
/// * time between explicit activity intervals, inside a region, counts as
///   [`ActivityKind::Computation`];
/// * nested regions attribute time to the *innermost* region;
/// * message events increment the counting parameters of the innermost
///   region at their timestamp.
///
/// # Errors
///
/// Returns the first structural violation in recording order (the
/// checks of [`Trace::validate`], run inline) and model errors should
/// the trace encode invalid values.
pub fn reduce(trace: &Trace) -> Result<ReducedTrace, TraceError> {
    let mut fold = ReduceSink::new(ActivitySet::standard());
    drive(trace, &mut fold)?;
    Ok(fold.into_reduced().expect("a finished fold has a result"))
}

/// Reduces a trace into `windows` equal time slices of the run's
/// `[0, makespan]` span, attributing each interval proportionally to
/// the windows it overlaps (counts go to the window of their
/// timestamp). The per-window matrices let the analysis track how load
/// imbalance *evolves* over the execution.
///
/// # Errors
///
/// Returns a malformed-trace error when `windows` is zero or the trace
/// spans no time, plus the conditions of [`reduce`].
pub fn reduce_windows(trace: &Trace, windows: usize) -> Result<Vec<ReducedTrace>, TraceError> {
    let scan = scan(trace);
    let mut fold = WindowSink::new(windows, scan.makespan, scan.activities)?;
    drive(trace, &mut fold)?;
    Ok(fold.into_windows().expect("a finished fold has a result"))
}

/// Scatters one attribution over the window builders: intervals split
/// proportionally across every window they overlap, counts land in the
/// window of their timestamp: the arithmetic of the window fold
/// ([`WindowSink`](crate::WindowSink)).
pub(crate) fn scatter_windowed(
    builders: &mut [(MeasurementsBuilder, CountMatrixBuilder)],
    width: f64,
    proc: u32,
    attribution: Attribution,
) -> Result<(), limba_model::ModelError> {
    let windows = builders.len();
    let clamp_window = |t: f64| -> usize { ((t / width) as usize).min(windows - 1) };
    match attribution {
        Attribution::Interval {
            region,
            kind,
            start,
            end,
        } => {
            let (first, last) = (clamp_window(start), clamp_window(end));
            let mut res = Ok(());
            for (w, builder) in builders.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = start.max(w as f64 * width);
                let hi = end.min((w + 1) as f64 * width);
                if hi > lo {
                    res = res.and(builder.0.record(
                        RegionId::new(region),
                        kind,
                        proc as usize,
                        hi - lo,
                    ));
                }
            }
            res
        }
        Attribution::Count {
            region,
            kind,
            amount,
            at,
        } => builders[clamp_window(at)]
            .1
            .record(RegionId::new(region), kind, proc as usize, amount)
            .and(Ok(())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, TraceBuilder};
    use limba_model::ProcessorId;

    #[test]
    fn gap_time_is_computation() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::begin_activity(2.0, 0, ActivityKind::PointToPoint));
        b.push(Event::end_activity(3.0, 0, ActivityKind::PointToPoint));
        b.push(Event::leave(5.0, 0, r));
        let red = reduce(&b.build()).unwrap();
        let m = &red.measurements;
        let p = ProcessorId::new(0);
        assert!((m.time(r, ActivityKind::Computation, p) - 4.0).abs() < 1e-12);
        assert!((m.time(r, ActivityKind::PointToPoint, p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nested_regions_attribute_to_innermost() {
        let mut b = TraceBuilder::new(1);
        let outer = b.add_region("outer");
        let inner = b.add_region("inner");
        b.push(Event::enter(0.0, 0, outer));
        b.push(Event::enter(1.0, 0, inner));
        b.push(Event::leave(3.0, 0, inner));
        b.push(Event::leave(4.0, 0, outer));
        let red = reduce(&b.build()).unwrap();
        let m = &red.measurements;
        let p = ProcessorId::new(0);
        assert!((m.time(outer, ActivityKind::Computation, p) - 2.0).abs() < 1e-12);
        assert!((m.time(inner, ActivityKind::Computation, p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_entries_accumulate() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        for i in 0..3 {
            let t0 = i as f64 * 10.0;
            b.push(Event::enter(t0, 0, r));
            b.push(Event::leave(t0 + 2.0, 0, r));
        }
        let red = reduce(&b.build()).unwrap();
        let t = red
            .measurements
            .time(r, ActivityKind::Computation, ProcessorId::new(0));
        assert!((t - 6.0).abs() < 1e-12);
    }

    #[test]
    fn message_counts_attributed_to_region() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::message_send(0.5, 0, 1, 100));
        b.push(Event::message_send(0.6, 0, 1, 200));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::message_recv(0.8, 1, 0, 300));
        b.push(Event::leave(1.0, 1, r));
        let red = reduce(&b.build()).unwrap();
        let c = &red.counts;
        assert_eq!(
            c.count(r, CountKind::MessagesSent, ProcessorId::new(0)),
            2.0
        );
        assert_eq!(c.count(r, CountKind::BytesSent, ProcessorId::new(0)), 300.0);
        assert_eq!(
            c.count(r, CountKind::MessagesReceived, ProcessorId::new(1)),
            1.0
        );
        assert_eq!(
            c.count(r, CountKind::BytesReceived, ProcessorId::new(1)),
            300.0
        );
    }

    #[test]
    fn non_standard_activity_kinds_extend_the_set() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::begin_activity(0.5, 0, ActivityKind::Io));
        b.push(Event::end_activity(1.5, 0, ActivityKind::Io));
        b.push(Event::leave(2.0, 0, r));
        let red = reduce(&b.build()).unwrap();
        let m = &red.measurements;
        assert!(m.activities().contains(ActivityKind::Io));
        assert!((m.time(r, ActivityKind::Io, ProcessorId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_trace_is_rejected() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        assert!(reduce(&b.build()).is_err());
    }

    #[test]
    fn two_processors_fill_their_own_columns() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::leave(3.0, 1, r));
        let red = reduce(&b.build()).unwrap();
        let m = &red.measurements;
        let s = m.processor_slice(r, ActivityKind::Computation).unwrap();
        assert_eq!(s, &[1.0, 3.0]);
    }

    #[test]
    fn windows_partition_time_exactly() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::begin_activity(3.0, 0, ActivityKind::Collective));
        b.push(Event::end_activity(7.0, 0, ActivityKind::Collective));
        b.push(Event::leave(10.0, 0, r));
        let trace = b.build();
        let windows = reduce_windows(&trace, 4).unwrap();
        assert_eq!(windows.len(), 4);
        let p = ProcessorId::new(0);
        // Window width 2.5. Computation [0,3]∪[7,10]; collective [3,7].
        let comp: Vec<f64> = windows
            .iter()
            .map(|w| w.measurements.time(r, ActivityKind::Computation, p))
            .collect();
        let coll: Vec<f64> = windows
            .iter()
            .map(|w| w.measurements.time(r, ActivityKind::Collective, p))
            .collect();
        assert!((comp[0] - 2.5).abs() < 1e-12);
        assert!((comp[1] - 0.5).abs() < 1e-12);
        assert!((comp[3] - 2.5).abs() < 1e-12);
        assert!((coll[1] - 2.0).abs() < 1e-12);
        assert!((coll[2] - 2.0).abs() < 1e-12);
        // The windows sum back to the unwindowed reduction.
        let total: f64 = comp.iter().sum::<f64>() + coll.iter().sum::<f64>();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn window_sums_match_full_reduction_for_multiproc_traces() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        for p in 0..2u32 {
            b.push(Event::enter(0.0, p, r));
            b.push(Event::message_send(1.0 + p as f64, p, 1 - p, 64));
            b.push(Event::leave(4.0 + p as f64, p, r));
        }
        let trace = b.build();
        let full = reduce(&trace).unwrap();
        let windows = reduce_windows(&trace, 3).unwrap();
        for p in 0..2 {
            let pid = ProcessorId::new(p);
            let summed: f64 = windows
                .iter()
                .map(|w| w.measurements.time(r, ActivityKind::Computation, pid))
                .sum();
            let direct = full.measurements.time(r, ActivityKind::Computation, pid);
            assert!((summed - direct).abs() < 1e-12);
            let msgs: f64 = windows
                .iter()
                .map(|w| w.counts.count(r, CountKind::MessagesSent, pid))
                .sum();
            assert_eq!(msgs, full.counts.count(r, CountKind::MessagesSent, pid));
        }
    }

    #[test]
    fn degenerate_window_requests_rejected() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        let trace = b.build();
        assert!(reduce_windows(&trace, 0).is_err());

        // Zero-span trace cannot be windowed.
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(0.0, 0, r));
        assert!(reduce_windows(&b.build(), 2).is_err());
    }
}
