//! Observed region nesting.
//!
//! The paper's code regions can be "loops, routines, code statements" —
//! naturally nested. A trace records that nesting implicitly through its
//! enter/leave stack; this module recovers the static region tree from
//! the dynamic nesting, so the analysis can drill down from coarse
//! regions to the specific statement block that misbehaves.

use crate::stream::RankChecks;
use crate::{EventPayload, Trace, TraceError};

/// The observed parent of each region: `parents[r]` is `Some(q)` when
/// region `r` was always entered while `q` was the innermost open
/// region, `None` when `r` is entered at top level.
///
/// One pass over the events in recording order, with the checks of
/// [`Trace::validate`] inline: each rank's open regions are the
/// checker's own stack.
///
/// # Errors
///
/// The first error in recording order: a structural violation (the
/// errors of [`Trace::validate`]), or [`TraceError::Malformed`] when a
/// region is entered under a parent other than the one it was first
/// seen under — the region structure is then not a tree and
/// hierarchical analysis does not apply. Regions and activities still
/// open at the end are reported last, in rank order.
pub fn region_parents(trace: &Trace) -> Result<Vec<Option<usize>>, TraceError> {
    let mut checks = RankChecks::new(trace.processors(), trace.region_names().len());
    // `Some(None)` = seen at top level; `Some(Some(q))` = seen under q.
    let mut parents: Vec<Option<Option<usize>>> = vec![None; trace.region_names().len()];
    for e in trace.events() {
        let parent = checks.innermost(e.proc);
        checks.step(e)?;
        if let EventPayload::EnterRegion { region } = e.payload {
            match parents[region] {
                None => parents[region] = Some(parent),
                Some(seen) if seen == parent => {}
                Some(seen) => {
                    return Err(TraceError::Malformed {
                        detail: format!(
                            "region {region} observed under parents {seen:?} and {parent:?}; \
                             the region structure is not a tree"
                        ),
                    })
                }
            }
        }
    }
    checks.finish()?;
    // Regions never entered default to top level.
    Ok(parents.into_iter().map(|p| p.flatten()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, TraceBuilder};

    #[test]
    fn recovers_two_level_nesting() {
        let mut b = TraceBuilder::new(1);
        let outer = b.add_region("outer");
        let inner_a = b.add_region("inner a");
        let inner_b = b.add_region("inner b");
        b.push(Event::enter(0.0, 0, outer));
        b.push(Event::enter(1.0, 0, inner_a));
        b.push(Event::leave(2.0, 0, inner_a));
        b.push(Event::enter(3.0, 0, inner_b));
        b.push(Event::leave(4.0, 0, inner_b));
        b.push(Event::leave(5.0, 0, outer));
        let parents = region_parents(&b.build()).unwrap();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
    }

    #[test]
    fn repeated_visits_are_consistent() {
        let mut b = TraceBuilder::new(2);
        let outer = b.add_region("outer");
        let inner = b.add_region("inner");
        for p in 0..2 {
            for i in 0..3 {
                let t = i as f64 * 10.0;
                b.push(Event::enter(t, p, outer));
                b.push(Event::enter(t + 1.0, p, inner));
                b.push(Event::leave(t + 2.0, p, inner));
                b.push(Event::leave(t + 3.0, p, outer));
            }
        }
        let parents = region_parents(&b.build()).unwrap();
        assert_eq!(parents, vec![None, Some(0)]);
    }

    #[test]
    fn inconsistent_parents_are_rejected() {
        let mut b = TraceBuilder::new(2);
        let a = b.add_region("a");
        let c = b.add_region("b");
        let shared = b.add_region("shared");
        // Rank 1 records first, so `shared` is first seen under `b`;
        // rank 0 then enters it under `a`. Rank 0's later bad leave
        // comes after the conflict in recording order.
        b.push(Event::enter(0.0, 1, c));
        b.push(Event::enter(1.0, 1, shared));
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::enter(1.0, 0, shared));
        b.push(Event::leave(2.0, 0, a));
        match region_parents(&b.build()) {
            Err(TraceError::Malformed { detail }) => assert!(
                detail.contains("region 2 observed under parents Some(1) and Some(0)"),
                "{detail}"
            ),
            other => panic!("expected the parent conflict, got {other:?}"),
        }
    }

    #[test]
    fn structural_errors_before_a_conflict_come_first() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        let c = b.add_region("b");
        let shared = b.add_region("shared");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::enter(1.0, 0, shared));
        b.push(Event::leave(2.0, 0, a));
        b.push(Event::enter(3.0, 0, c));
        b.push(Event::enter(4.0, 0, shared));
        assert!(matches!(
            region_parents(&b.build()),
            Err(TraceError::UnbalancedNesting { proc: 0, .. })
        ));
    }

    #[test]
    fn unclosed_regions_fail_like_validate() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        let trace = b.build();
        assert_eq!(
            region_parents(&trace).unwrap_err().to_string(),
            trace.validate().unwrap_err().to_string()
        );
    }

    #[test]
    fn unentered_regions_default_to_top_level() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        let _never = b.add_region("never entered");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::leave(1.0, 0, a));
        let parents = region_parents(&b.build()).unwrap();
        assert_eq!(parents, vec![None, None]);
    }

    #[test]
    fn three_level_nesting() {
        let mut b = TraceBuilder::new(1);
        let l0 = b.add_region("step");
        let l1 = b.add_region("solve");
        let l2 = b.add_region("flux");
        b.push(Event::enter(0.0, 0, l0));
        b.push(Event::enter(1.0, 0, l1));
        b.push(Event::enter(2.0, 0, l2));
        b.push(Event::leave(3.0, 0, l2));
        b.push(Event::leave(4.0, 0, l1));
        b.push(Event::leave(5.0, 0, l0));
        let parents = region_parents(&b.build()).unwrap();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
    }
}
