//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer of the program
//! in a [`span`]. With recording off (the untraced run) a span is a
//! no-op guard. With recording on, each finished span is appended to
//! one in-memory list and read back with [`take`] when the run ends, so
//! nothing is written while ops are being timed.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// The span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// The op this span belongs to.
    pub op: u64,
    /// Layer call name, `<crate dir>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Work the call did (bytes or events), when the caller noted it.
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for spans opened from now on.
pub fn set_recording(on: bool) {
    EPOCH.get_or_init(Instant::now);
    RECORDING.store(on, Ordering::SeqCst);
}

/// Sets the op id that spans opened on this thread belong to.
pub fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned by a panicking op"))
}

/// Open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, u64)>,
    work: u64,
}

impl Guard {
    /// Notes the work (bytes or events) the wrapped call did.
    pub fn work(&mut self, n: u64) {
        self.work = n;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
        let span = Span {
            id,
            parent,
            op: OP.with(Cell::get),
            name,
            start_ns,
            end_ns,
            work: self.work,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Opens a span named `name` as a child of the span open on this
/// thread, if any. A no-op while recording is off.
pub fn span(name: &'static str) -> Guard {
    if !RECORDING.load(Ordering::Relaxed) {
        return Guard {
            open: None,
            work: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, now_ns())),
        work: 0,
    }
}

/// Runs `f` inside a span named `name`.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}
