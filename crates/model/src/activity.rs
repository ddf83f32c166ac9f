//! Activities performed by a parallel program.

use std::fmt;

/// Kind of activity a processor performs inside a code region.
///
/// The paper's case study measures the first four kinds (computation,
/// point-to-point communication, collective communication, and
/// synchronization); the model also carries I/O and memory-access
/// activities so that richer instrumentation fits the same matrices.
///
/// # Example
///
/// ```
/// use limba_model::ActivityKind;
/// assert_eq!(ActivityKind::PointToPoint.to_string(), "point-to-point");
/// assert!(ActivityKind::Computation.is_computation());
/// assert!(ActivityKind::Collective.is_communication());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActivityKind {
    /// Pure computation (user code between communication calls).
    Computation,
    /// Point-to-point communication (`MPI_SEND` / `MPI_RECV`).
    PointToPoint,
    /// Collective communication (`MPI_REDUCE`, `MPI_ALLTOALL`, …).
    Collective,
    /// Explicit synchronization (`MPI_BARRIER`).
    Synchronization,
    /// File input/output.
    Io,
    /// Memory accesses attributed separately from computation.
    MemoryAccess,
}

/// The activities measured in the paper's case study, in table order.
pub const STANDARD_ACTIVITIES: [ActivityKind; 4] = [
    ActivityKind::Computation,
    ActivityKind::PointToPoint,
    ActivityKind::Collective,
    ActivityKind::Synchronization,
];

impl ActivityKind {
    /// All activity kinds the model knows about, in canonical order.
    pub const ALL: [ActivityKind; 6] = [
        ActivityKind::Computation,
        ActivityKind::PointToPoint,
        ActivityKind::Collective,
        ActivityKind::Synchronization,
        ActivityKind::Io,
        ActivityKind::MemoryAccess,
    ];

    /// Dense index of this kind within [`ActivityKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            ActivityKind::Computation => 0,
            ActivityKind::PointToPoint => 1,
            ActivityKind::Collective => 2,
            ActivityKind::Synchronization => 3,
            ActivityKind::Io => 4,
            ActivityKind::MemoryAccess => 5,
        }
    }

    /// Inverse of [`ActivityKind::index`]; `None` for out-of-range indices.
    pub fn from_index(index: usize) -> Option<Self> {
        ActivityKind::ALL.get(index).copied()
    }

    /// Returns `true` for [`ActivityKind::Computation`].
    pub fn is_computation(self) -> bool {
        self == ActivityKind::Computation
    }

    /// Returns `true` for the communication kinds (point-to-point or collective).
    pub fn is_communication(self) -> bool {
        matches!(self, ActivityKind::PointToPoint | ActivityKind::Collective)
    }

    /// Short, stable label used by reports and tracefiles.
    pub fn label(self) -> &'static str {
        match self {
            ActivityKind::Computation => "computation",
            ActivityKind::PointToPoint => "point-to-point",
            ActivityKind::Collective => "collective",
            ActivityKind::Synchronization => "synchronization",
            ActivityKind::Io => "io",
            ActivityKind::MemoryAccess => "memory",
        }
    }

    /// Parses a label produced by [`ActivityKind::label`].
    pub fn parse_label(label: &str) -> Option<Self> {
        ActivityKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl fmt::Display for ActivityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An ordered set of activity kinds observed by one measurement campaign.
///
/// A measurement matrix only stores columns for the activities that were
/// actually instrumented; `ActivitySet` fixes their order and provides the
/// kind ↔ column mapping.
///
/// # Example
///
/// ```
/// use limba_model::{ActivityKind, ActivitySet};
/// let set = ActivitySet::standard();
/// assert_eq!(set.len(), 4);
/// assert_eq!(set.column(ActivityKind::Collective), Some(2));
/// assert_eq!(set.kind(2), Some(ActivityKind::Collective));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActivitySet {
    kinds: Vec<ActivityKind>,
}

impl ActivitySet {
    /// Creates a set from distinct kinds, preserving their order.
    ///
    /// Duplicate kinds are collapsed to their first occurrence.
    pub fn new<I: IntoIterator<Item = ActivityKind>>(kinds: I) -> Self {
        let mut out = Vec::new();
        for k in kinds {
            if !out.contains(&k) {
                out.push(k);
            }
        }
        ActivitySet { kinds: out }
    }

    /// The paper's four measured activities in table order.
    pub fn standard() -> Self {
        ActivitySet::new(STANDARD_ACTIVITIES)
    }

    /// Appends `kind` as the last column unless the set already holds
    /// it; returns whether it was appended.
    pub fn insert(&mut self, kind: ActivityKind) -> bool {
        let absent = !self.kinds.contains(&kind);
        if absent {
            self.kinds.push(kind);
        }
        absent
    }

    /// Number of activities in the set.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` when the set contains no activities.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Column index of `kind` within this set, if present.
    pub fn column(&self, kind: ActivityKind) -> Option<usize> {
        self.kinds.iter().position(|&k| k == kind)
    }

    /// Kind stored at `column`, if in range.
    pub fn kind(&self, column: usize) -> Option<ActivityKind> {
        self.kinds.get(column).copied()
    }

    /// Returns `true` when `kind` is part of this set.
    pub fn contains(&self, kind: ActivityKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// Iterates over the kinds in column order.
    pub fn iter(&self) -> impl Iterator<Item = ActivityKind> + '_ {
        self.kinds.iter().copied()
    }

    /// The kinds as a slice in column order.
    pub fn as_slice(&self) -> &[ActivityKind] {
        &self.kinds
    }
}

impl Default for ActivitySet {
    fn default() -> Self {
        ActivitySet::standard()
    }
}

impl FromIterator<ActivityKind> for ActivitySet {
    fn from_iter<I: IntoIterator<Item = ActivityKind>>(iter: I) -> Self {
        ActivitySet::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips_for_all_kinds() {
        for kind in ActivityKind::ALL {
            assert_eq!(ActivityKind::from_index(kind.index()), Some(kind));
        }
        assert_eq!(ActivityKind::from_index(99), None);
    }

    #[test]
    fn labels_round_trip() {
        for kind in ActivityKind::ALL {
            assert_eq!(ActivityKind::parse_label(kind.label()), Some(kind));
        }
        assert_eq!(ActivityKind::parse_label("nonsense"), None);
    }

    #[test]
    fn communication_classification() {
        assert!(ActivityKind::PointToPoint.is_communication());
        assert!(ActivityKind::Collective.is_communication());
        assert!(!ActivityKind::Computation.is_communication());
        assert!(!ActivityKind::Synchronization.is_communication());
        assert!(ActivityKind::Computation.is_computation());
    }

    #[test]
    fn standard_set_matches_paper_order() {
        let set = ActivitySet::standard();
        assert_eq!(set.len(), 4);
        assert_eq!(set.kind(0), Some(ActivityKind::Computation));
        assert_eq!(set.kind(1), Some(ActivityKind::PointToPoint));
        assert_eq!(set.kind(2), Some(ActivityKind::Collective));
        assert_eq!(set.kind(3), Some(ActivityKind::Synchronization));
        assert_eq!(set.kind(4), None);
    }

    #[test]
    fn duplicate_kinds_are_collapsed() {
        let set = ActivitySet::new([
            ActivityKind::Io,
            ActivityKind::Io,
            ActivityKind::Computation,
        ]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.column(ActivityKind::Io), Some(0));
        assert_eq!(set.column(ActivityKind::Computation), Some(1));
    }

    #[test]
    fn empty_set_reports_empty() {
        let set = ActivitySet::new([]);
        assert!(set.is_empty());
        assert_eq!(set.column(ActivityKind::Io), None);
    }

    #[test]
    fn from_iterator_collects() {
        let set: ActivitySet = STANDARD_ACTIVITIES.into_iter().collect();
        assert_eq!(set, ActivitySet::standard());
    }
}
