//! The trace event model.

use std::cmp::Ordering;

use limba_model::{ActivityKind, RegionId};

use crate::stream::RankChecks;
use crate::TraceError;

/// What happened at one instant on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventPayload {
    /// The processor entered a code region.
    EnterRegion {
        /// Dense region index.
        region: usize,
    },
    /// The processor left a code region.
    LeaveRegion {
        /// Dense region index.
        region: usize,
    },
    /// The processor started a non-computation activity (e.g. entered an
    /// `MPI_SEND`).
    BeginActivity {
        /// The activity being entered.
        kind: ActivityKind,
    },
    /// The processor finished the current non-computation activity.
    EndActivity {
        /// The activity being left; must match the matching begin.
        kind: ActivityKind,
    },
    /// A message left this processor (counting parameter only).
    MessageSend {
        /// Destination processor.
        peer: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A message arrived at this processor (counting parameter only).
    MessageRecv {
        /// Source processor.
        peer: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
}

/// One timestamped event of one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Wall-clock time in seconds since program start.
    pub time: f64,
    /// Processor the event occurred on.
    pub proc: u32,
    /// What happened.
    pub payload: EventPayload,
}

impl Event {
    /// Region-enter event.
    pub fn enter(time: f64, proc: u32, region: RegionId) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::EnterRegion {
                region: region.index(),
            },
        }
    }

    /// Region-leave event.
    pub fn leave(time: f64, proc: u32, region: RegionId) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::LeaveRegion {
                region: region.index(),
            },
        }
    }

    /// Activity-begin event.
    pub fn begin_activity(time: f64, proc: u32, kind: ActivityKind) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::BeginActivity { kind },
        }
    }

    /// Activity-end event.
    pub fn end_activity(time: f64, proc: u32, kind: ActivityKind) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::EndActivity { kind },
        }
    }

    /// Message-send event.
    pub fn message_send(time: f64, proc: u32, peer: u32, bytes: u64) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::MessageSend { peer, bytes },
        }
    }

    /// Message-receive event.
    pub fn message_recv(time: f64, proc: u32, peer: u32, bytes: u64) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::MessageRecv { peer, bytes },
        }
    }
}

/// A complete tracefile: the processor count, the region name table, and
/// the event stream.
///
/// Events are kept in recording order. Ranks may interleave freely, but
/// each rank's own events must be recorded in time order — the trace
/// input contract every reader and fold relies on (every in-repo writer
/// records that way, and the text reader sorts each rank on load).
/// [`Trace::validate`] checks it along with structural well-formedness.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    processors: usize,
    region_names: Vec<String>,
    events: Vec<Event>,
}

impl Trace {
    /// Number of processors the trace was recorded on.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Registered region names, indexed by region id.
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// All events in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events of `proc` sorted by time (stable, so simultaneous events
    /// keep recording order).
    pub fn events_by_processor(&self, proc: u32) -> Vec<Event> {
        let mut evs: Vec<Event> = self
            .events
            .iter()
            .copied()
            .filter(|e| e.proc == proc)
            .collect();
        evs.sort_by(|a, b| a.time.total_cmp(&b.time));
        evs
    }

    /// Checks structural well-formedness: processor and region indices in
    /// range, per-processor monotone clocks, balanced region nesting, and
    /// matched activity begin/end pairs. These are the checks the strict
    /// reductions run inline.
    ///
    /// # Errors
    ///
    /// Returns the first violation in recording order; regions or
    /// activities still open at the end are reported in rank order.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut checks = RankChecks::new(self.processors, self.region_names.len());
        for e in &self.events {
            checks.step(e)?;
        }
        checks.finish()
    }
}

/// Builder assembling a [`Trace`].
///
/// # Example
///
/// ```
/// use limba_trace::{Event, TraceBuilder};
/// let mut b = TraceBuilder::new(2);
/// let r = b.add_region("main");
/// b.push(Event::enter(0.0, 0, r));
/// b.push(Event::leave(1.0, 0, r));
/// let trace = b.build();
/// assert_eq!(trace.processors(), 2);
/// assert_eq!(trace.events().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    processors: usize,
    region_names: Vec<String>,
    events: Vec<Event>,
}

impl TraceBuilder {
    /// Creates a builder for a trace of `processors` processors.
    pub fn new(processors: usize) -> Self {
        TraceBuilder {
            processors,
            region_names: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Registers a region name, returning its id.
    pub fn add_region(&mut self, name: impl Into<String>) -> RegionId {
        let id = RegionId::new(self.region_names.len());
        self.region_names.push(name.into());
        id
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Reserves room for at least `additional` more events, so callers
    /// that know their event count up front (the simulator derives it
    /// from op counts) avoid reallocations while recording.
    pub fn reserve_events(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// Appends a batch of events in order — equivalent to pushing each
    /// one, as a single bulk copy. The materializing stream fold uses
    /// this to append each decoded frame.
    pub fn extend_events(&mut self, events: &[Event]) {
        self.events.extend_from_slice(events);
    }

    /// Number of regions registered so far.
    pub fn region_count(&self) -> usize {
        self.region_names.len()
    }

    /// Number of events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Stably sorts each rank's events by time, keeping every rank's
    /// events in the slots that rank already occupies, so the
    /// interleaving of ranks is unchanged; a no-op (one O(n) check) when
    /// every rank is already in time order. Events naming an
    /// out-of-range processor stay where they are.
    pub(crate) fn sort_ranks(&mut self) {
        let mut last = vec![f64::NEG_INFINITY; self.processors];
        let ordered = self
            .events
            .iter()
            .all(|e| match last.get_mut(e.proc as usize) {
                Some(t) => std::mem::replace(t, e.time) <= e.time,
                None => true,
            });
        if ordered {
            return;
        }
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); self.processors];
        for (i, e) in self.events.iter().enumerate() {
            if let Some(rank) = slots.get_mut(e.proc as usize) {
                rank.push(i);
            }
        }
        for rank in slots {
            let mut events: Vec<Event> = rank.iter().map(|&i| self.events[i]).collect();
            // `<` order, as the clock check compares: -0.0 and +0.0 tie.
            events.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap_or(Ordering::Equal));
            for (i, e) in rank.into_iter().zip(events) {
                self.events[i] = e;
            }
        }
    }

    /// Finalizes the trace (without validating; call
    /// [`Trace::validate`] separately when the source is untrusted).
    pub fn build(self) -> Trace {
        Trace {
            processors: self.processors,
            region_names: self.region_names,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> RegionId {
        RegionId::new(i)
    }

    fn well_formed() -> Trace {
        let mut b = TraceBuilder::new(2);
        let main = b.add_region("main");
        let inner = b.add_region("inner");
        for p in 0..2 {
            b.push(Event::enter(0.0, p, main));
            b.push(Event::enter(0.5, p, inner));
            b.push(Event::begin_activity(0.6, p, ActivityKind::Collective));
            b.push(Event::end_activity(0.9, p, ActivityKind::Collective));
            b.push(Event::leave(1.0, p, inner));
            b.push(Event::leave(2.0, p, main));
        }
        b.build()
    }

    #[test]
    fn valid_trace_passes() {
        well_formed().validate().unwrap();
    }

    #[test]
    fn events_by_processor_sorted() {
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.push(Event::leave(2.0, 0, m));
        b.push(Event::enter(1.0, 0, m));
        let t = b.build();
        let evs = t.events_by_processor(0);
        assert!(evs[0].time < evs[1].time);
    }

    #[test]
    fn detects_unknown_processor_and_region() {
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.push(Event::enter(0.0, 5, m));
        assert!(matches!(
            b.build().validate(),
            Err(TraceError::UnknownProcessor { proc: 5 })
        ));

        let mut b = TraceBuilder::new(1);
        b.add_region("m");
        b.push(Event::enter(0.0, 0, r(3)));
        assert!(matches!(
            b.build().validate(),
            Err(TraceError::UnknownRegion { region: 3 })
        ));
    }

    #[test]
    fn detects_backwards_clock() {
        // Same-timestamp events are fine, and ranks interleave freely;
        // a rank's own clock going backwards in recording order is not.
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.push(Event::enter(1.0, 0, m));
        b.push(Event::leave(1.0, 0, m));
        b.build().validate().unwrap();

        let mut b = TraceBuilder::new(2);
        let m = b.add_region("m");
        b.push(Event::enter(2.0, 0, m));
        b.push(Event::enter(0.0, 1, m));
        b.push(Event::leave(1.0, 0, m));
        b.push(Event::leave(1.0, 1, m));
        match b.build().validate() {
            Err(TraceError::NonMonotoneTime {
                proc: 0,
                before,
                after,
            }) => assert_eq!((before, after), (2.0, 1.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn detects_cross_region_leave() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        let c = b.add_region("b");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::leave(1.0, 0, c));
        assert!(matches!(
            b.build().validate(),
            Err(TraceError::UnbalancedNesting { .. })
        ));
    }

    #[test]
    fn detects_leave_without_enter_and_open_region() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::leave(1.0, 0, a));
        assert!(b.build().validate().is_err());

        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(1.0, 0, a));
        assert!(b.build().validate().is_err());
    }

    #[test]
    fn detects_activity_problems() {
        // Nested activities.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::begin_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().validate().is_err());

        // Mismatched end.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::end_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().validate().is_err());

        // End without begin.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::end_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().validate().is_err());

        // Activity outside any region.
        let mut b = TraceBuilder::new(1);
        b.add_region("a");
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        assert!(b.build().validate().is_err());

        // Activity left open.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::leave(0.2, 0, a));
        assert!(b.build().validate().is_err());
    }

    #[test]
    fn message_events_do_not_disturb_validation() {
        let mut b = TraceBuilder::new(2);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::message_send(0.5, 0, 1, 1024));
        b.push(Event::leave(1.0, 0, a));
        b.push(Event::message_recv(0.7, 1, 0, 1024));
        b.build().validate().unwrap();
    }

    #[test]
    fn reserve_events_does_not_change_contents() {
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.reserve_events(128);
        b.push(Event::enter(0.0, 0, m));
        b.push(Event::leave(1.0, 0, m));
        assert_eq!(b.len(), 2);
        b.build().validate().unwrap();
    }

    #[test]
    fn builder_len_and_empty() {
        let mut b = TraceBuilder::new(1);
        assert!(b.is_empty());
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        assert_eq!(b.len(), 1);
    }
}
