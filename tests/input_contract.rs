//! The trace input contract, differentially: arbitrary event sequences
//! — not simulator-shaped ones — written as raw version 1, 2 and 3
//! containers and as text, driven through every entry point. Each
//! binary input gives the same result or the same named error on every
//! path: the whole-buffer reader with the batch reductions, the
//! incremental decoder fed 1, 7 and 64 KiB at a time into the folds,
//! and serve's spool replay. The text form of a trace gives the result
//! of its per-rank-sorted form, because the text reader sorts each rank
//! on load. The one-pass folds, which learn their activity columns as
//! they meet new kinds, agree with folds seeded from a scan pass, also
//! on traces whose extra activities first appear in either order, only
//! on a truncated rank, or still open at the end.

use std::path::PathBuf;

use limba::analysis::Analyzer;
use limba::model::{ActivityKind, ActivitySet, CountMatrix, Measurements, RegionId};
use limba::serve::{replay, ServeError};
use limba::stats::dispersion::DispersionKind;
use limba::stats::rank::RankingCriterion;
use limba::trace::{
    binary, reduce_checked, reduce_windows, stream, text, Event, EventPayload, RankCoverage,
    ReducedTrace, SalvageSink, SalvagedTrace, ScanSink, StreamDecoder, Trace, TraceBuilder,
    TraceError, TraceSink, WindowSink,
};
use limba::vfs::StdVfs;
use proptest::prelude::*;

/// Windows every windowed path slices into.
const WINDOWS: usize = 3;

/// The feed sizes of the incremental paths.
const FEEDS: [usize; 3] = [1, 7, 64 * 1024];

/// SplitMix64: a small deterministic generator driven by the proptest
/// seed, so one seed describes one whole trace.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `true` with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// An arbitrary trace: up to four ranks, each either empty or a walk
/// of region visits nested up to six deep, activities (some outliving
/// their region), messages, repeated and signed-zero timestamps; then
/// some ranks truncated mid-structure, some given a random structural
/// error, some put out of time order, and a few timestamps replaced by
/// NaN or ±inf. Ranks interleave at random in recording order.
fn arbitrary_trace(seed: u64) -> Trace {
    let mut rng = Rng(seed);
    let procs = 1 + rng.below(4);
    let regions = 1 + rng.below(3);
    let mut b = TraceBuilder::new(procs);
    for r in 0..regions {
        b.add_region(format!("region {r}"));
    }
    let mut ranks: Vec<Vec<Event>> = (0..procs as u32)
        .map(|p| rank_events(&mut rng, p, regions))
        .collect();
    for events in &mut ranks {
        if events.len() > 1 && rng.chance(20) {
            // Out of time order: two of the rank's events swap places.
            let (i, j) = (rng.below(events.len()), rng.below(events.len()));
            events.swap(i, j);
        }
        if !events.is_empty() && rng.chance(6) {
            let i = rng.below(events.len());
            events[i].time = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
        }
    }
    let mut next = vec![0usize; procs];
    while let Some(p) = {
        let open: Vec<usize> = (0..procs).filter(|&p| next[p] < ranks[p].len()).collect();
        (!open.is_empty()).then(|| open[rng.below(open.len())])
    } {
        b.push(ranks[p][next[p]]);
        next[p] += 1;
    }
    b.build()
}

/// One rank's events in time order, mostly well formed.
fn rank_events(rng: &mut Rng, proc: u32, regions: usize) -> Vec<Event> {
    let mut events = Vec::new();
    if rng.chance(15) {
        return events;
    }
    let region = |rng: &mut Rng| RegionId::new(rng.below(regions));
    let kind = |rng: &mut Rng| ActivityKind::ALL[rng.below(ActivityKind::ALL.len())];
    let mut clock = 0.0f64;
    let mut stack: Vec<RegionId> = Vec::new();
    let mut activity: Option<ActivityKind> = None;
    for _ in 0..rng.below(24) {
        clock += [0.0, 0.25, 1.0][rng.below(3)];
        let t = if clock == 0.0 && rng.chance(50) {
            -0.0
        } else {
            clock
        };
        let e = if rng.chance(4) {
            // Anything at all: often a structural error.
            match rng.below(4) {
                0 => Event::leave(t, proc, region(rng)),
                1 => Event::end_activity(t, proc, kind(rng)),
                2 => Event::begin_activity(t, proc, kind(rng)),
                _ => Event::enter(t, proc, region(rng)),
            }
        } else {
            match rng.below(6) {
                0 | 1 if stack.len() < 6 => {
                    let r = region(rng);
                    stack.push(r);
                    Event::enter(t, proc, r)
                }
                // Leaving with an activity open lets it outlive its
                // region.
                2 if !stack.is_empty() && (activity.is_none() || rng.chance(30)) => {
                    Event::leave(t, proc, stack.pop().expect("non-empty"))
                }
                3 if !stack.is_empty() && activity.is_none() => {
                    let k = kind(rng);
                    activity = Some(k);
                    Event::begin_activity(t, proc, k)
                }
                4 if activity.is_some() => {
                    Event::end_activity(t, proc, activity.take().expect("open"))
                }
                _ if rng.chance(50) => Event::message_send(t, proc, 0, rng.next() % 4096),
                _ => Event::message_recv(t, proc, 0, rng.next() % 4096),
            }
        };
        events.push(e);
    }
    if rng.chance(80) {
        // Close what is open; otherwise the rank stays truncated.
        clock += 1.0;
        if let Some(k) = activity.take() {
            events.push(Event::end_activity(clock, proc, k));
        }
        while let Some(r) = stack.pop() {
            events.push(Event::leave(clock, proc, r));
        }
    }
    events
}

/// The extra activities a trace may carry beyond the standard four.
const EXTRAS: [ActivityKind; 2] = [ActivityKind::Io, ActivityKind::MemoryAccess];

/// How one extra activity appears in [`extras_trace`].
#[derive(Clone, Copy, PartialEq)]
enum Extra {
    /// Begun and ended on a rank whose stream completes.
    Complete,
    /// Begun and ended on a rank cut short afterwards, its region open.
    Truncated,
    /// Begun on a rank whose stream ends before the activity does.
    Open,
}

/// A trace that is well formed but for truncation, carrying `Io` and
/// `MemoryAccess` each on a rank of its own, placed as the returned
/// modes say. Every rank also walks standard activities, and ranks
/// interleave at random in recording order, so either extra may be
/// seen first.
fn extras_trace(seed: u64) -> (Trace, [Extra; 2]) {
    let mut rng = Rng(seed);
    let procs = 3 + rng.below(2);
    let regions = 1 + rng.below(2);
    let mut b = TraceBuilder::new(procs);
    for r in 0..regions {
        b.add_region(format!("region {r}"));
    }
    let modes = [(); 2].map(|()| [Extra::Complete, Extra::Truncated, Extra::Open][rng.below(3)]);
    let extra_ranks = {
        let first = rng.below(procs);
        [first, (first + 1 + rng.below(procs - 1)) % procs]
    };
    let mut ranks: Vec<Vec<Event>> = Vec::new();
    for p in 0..procs {
        let proc = p as u32;
        let mut clock = 0.0;
        let mut tick = |rng: &mut Rng| {
            clock += [0.25, 0.5, 1.0][rng.below(3)];
            clock
        };
        let mut events = Vec::new();
        let mut visit = |rng: &mut Rng, kind: ActivityKind, events: &mut Vec<Event>| {
            let region = RegionId::new(rng.below(regions));
            events.push(Event::enter(tick(rng), proc, region));
            events.push(Event::begin_activity(tick(rng), proc, kind));
            events.push(Event::end_activity(tick(rng), proc, kind));
            events.push(Event::leave(tick(rng), proc, region));
        };
        let extra = extra_ranks.iter().position(|&r| r == p);
        let first = extra.filter(|&i| modes[i] == Extra::Complete && rng.chance(50));
        if let Some(i) = first {
            visit(&mut rng, EXTRAS[i], &mut events);
        }
        for _ in 0..rng.below(4) {
            let kind = ActivityKind::ALL[rng.below(4)];
            visit(&mut rng, kind, &mut events);
        }
        if let Some(i) = extra.filter(|&i| first != Some(i)) {
            visit(&mut rng, EXTRAS[i], &mut events);
            match modes[i] {
                Extra::Complete => {}
                // Drop the leave: the region stays open.
                Extra::Truncated => {
                    events.pop();
                }
                // Drop the end and the leave as well.
                Extra::Open => {
                    events.truncate(events.len() - 2);
                }
            }
        }
        ranks.push(events);
    }
    let mut next = vec![0usize; procs];
    while let Some(p) = {
        let open: Vec<usize> = (0..procs).filter(|&p| next[p] < ranks[p].len()).collect();
        (!open.is_empty()).then(|| open[rng.below(open.len())])
    } {
        b.push(ranks[p][next[p]]);
        next[p] += 1;
    }
    (b.build(), modes)
}

/// A stable per-rank time sort in which each rank keeps the slots it
/// occupies — what the text reader does on load.
fn sort_ranks(trace: &Trace) -> Trace {
    let mut events = trace.events().to_vec();
    for p in 0..trace.processors() as u32 {
        let slots: Vec<usize> = (0..events.len()).filter(|&i| events[i].proc == p).collect();
        let mut mine: Vec<Event> = slots.iter().map(|&i| events[i]).collect();
        mine.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        for (i, e) in slots.into_iter().zip(mine) {
            events[i] = e;
        }
    }
    rebuild(trace, events)
}

fn rebuild(trace: &Trace, events: Vec<Event>) -> Trace {
    let mut b = TraceBuilder::new(trace.processors());
    for name in trace.region_names() {
        b.add_region(name.clone());
    }
    b.extend_events(&events);
    b.build()
}

/// A raw legacy container: version 1 (no checksum) or 2.
fn legacy_bytes(trace: &Trace, version: u16) -> Vec<u8> {
    let mut out = b"LIMBATRC".to_vec();
    out.extend(version.to_le_bytes());
    out.extend((trace.processors() as u32).to_le_bytes());
    out.extend((trace.region_names().len() as u32).to_le_bytes());
    for name in trace.region_names() {
        out.extend((name.len() as u32).to_le_bytes());
        out.extend(name.as_bytes());
    }
    out.extend((trace.events().len() as u64).to_le_bytes());
    for e in trace.events() {
        out.extend(e.time.to_le_bytes());
        out.extend(e.proc.to_le_bytes());
        match e.payload {
            EventPayload::EnterRegion { region } | EventPayload::LeaveRegion { region } => {
                let op = u8::from(matches!(e.payload, EventPayload::LeaveRegion { .. }));
                out.push(op);
                out.extend((region as u32).to_le_bytes());
            }
            EventPayload::BeginActivity { kind } => out.extend([2, kind.index() as u8]),
            EventPayload::EndActivity { kind } => out.extend([3, kind.index() as u8]),
            EventPayload::MessageSend { peer, bytes }
            | EventPayload::MessageRecv { peer, bytes } => {
                let op = if matches!(e.payload, EventPayload::MessageSend { .. }) {
                    4
                } else {
                    5
                };
                out.push(op);
                out.extend(peer.to_le_bytes());
                out.extend(bytes.to_le_bytes());
            }
        }
    }
    if version == 2 {
        let checksum = out.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        out.extend(checksum.to_le_bytes());
    }
    out
}

/// The trace in every binary container version.
fn containers(trace: &Trace) -> [(&'static str, Vec<u8>); 3] {
    [
        ("v1", legacy_bytes(trace, 1)),
        ("v2", legacy_bytes(trace, 2)),
        (
            "v3",
            stream::to_stream_bytes(trace, 5).expect("encodes").to_vec(),
        ),
    ]
}

/// A comparable salvage outcome.
type Salvage = Result<(Measurements, CountMatrix, Vec<RankCoverage>), String>;

/// Comparable windowed outcome.
type Windows = Result<Vec<(Measurements, CountMatrix)>, String>;

fn salvage_outcome(result: Result<SalvagedTrace, TraceError>) -> Salvage {
    result
        .map(|s| (s.reduced.measurements, s.reduced.counts, s.coverage))
        .map_err(|e| e.to_string())
}

fn windows_outcome(result: Result<Vec<ReducedTrace>, TraceError>) -> Windows {
    result
        .map(|ws| ws.into_iter().map(|w| (w.measurements, w.counts)).collect())
        .map_err(|e| e.to_string())
}

/// Decodes `bytes` into `sink`, `feed` bytes at a time.
fn feed(bytes: &[u8], feed: usize, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
    let mut decoder = StreamDecoder::new();
    for chunk in bytes.chunks(feed) {
        decoder.feed(chunk, sink)?;
    }
    decoder.finish(sink)
}

/// The streamed salvage: scan pass, then the salvage fold.
fn streamed_salvage(bytes: &[u8], chunk: usize) -> Result<SalvagedTrace, TraceError> {
    let mut scan = ScanSink::new();
    feed(bytes, chunk, &mut scan)?;
    let mut fold = SalvageSink::new(scan.into_scan().expect("scanned").activities);
    feed(bytes, chunk, &mut fold)?;
    Ok(fold.into_salvaged().expect("folded"))
}

/// Drives an in-memory trace's events into `sink`, `batch` at a time.
fn drive(trace: &Trace, batch: usize, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
    sink.begin(trace.processors(), trace.region_names())?;
    for events in trace.events().chunks(batch) {
        sink.events(events)?;
    }
    sink.finish()
}

/// The one-pass salvage of a trace's events: the fold alone, seeded
/// with the standard activities.
fn one_pass_salvage(trace: &Trace, batch: usize) -> Result<SalvagedTrace, TraceError> {
    let mut fold = SalvageSink::new(ActivitySet::standard());
    drive(trace, batch, &mut fold)?;
    Ok(fold.into_salvaged().expect("folded"))
}

/// The scan-seeded salvage of a trace's events: a scan pass, then the
/// fold seeded with its columns.
fn scan_seeded_salvage(trace: &Trace, batch: usize) -> Result<SalvagedTrace, TraceError> {
    let mut scan = ScanSink::new();
    drive(trace, batch, &mut scan)?;
    let mut fold = SalvageSink::new(scan.into_scan().expect("scanned").activities);
    drive(trace, batch, &mut fold)?;
    Ok(fold.into_salvaged().expect("folded"))
}

/// The offline salvage of a stream cut short: a scan pass, then a
/// scan-seeded fold, each over the events that decode from `bytes` and
/// closed where they end.
fn salvaged_prefix(bytes: &[u8]) -> Result<SalvagedTrace, TraceError> {
    let mut scan = ScanSink::new();
    StreamDecoder::new().feed(bytes, &mut scan)?;
    scan.finish()?;
    let mut fold = SalvageSink::new(scan.into_scan().expect("scanned").activities);
    StreamDecoder::new().feed(bytes, &mut fold)?;
    fold.finish()?;
    Ok(fold.into_salvaged().expect("folded"))
}

/// The streamed windows: scan pass, then the window fold.
fn streamed_windows(bytes: &[u8], chunk: usize) -> Result<Vec<ReducedTrace>, TraceError> {
    let mut scan = ScanSink::new();
    feed(bytes, chunk, &mut scan)?;
    let scan = scan.into_scan().expect("scanned");
    let mut fold = WindowSink::new(WINDOWS, scan.makespan, scan.activities)?;
    feed(bytes, chunk, &mut fold)?;
    Ok(fold.into_windows().expect("folded"))
}

/// The report `limba analyze` prints for a salvage — the analyzer
/// defaults, the guard against salvages without measured time, and the
/// coverage renderer — or the error it fails with.
fn report(salvaged: Result<SalvagedTrace, TraceError>) -> Result<String, String> {
    let salvaged = salvaged.map_err(|e| e.to_string())?;
    let SalvagedTrace { reduced, coverage } = &salvaged;
    if coverage.iter().any(|c| !c.complete) && reduced.measurements.total_time() <= 0.0 {
        let truncated = coverage.iter().filter(|c| !c.complete).count();
        return Err(TraceError::Malformed {
            detail: format!(
                "unsalvageable trace: {truncated} of {} ranks truncated and no measured time survives",
                coverage.len()
            ),
        }
        .to_string());
    }
    let analysis = Analyzer::new()
        .with_dispersion(DispersionKind::Euclidean)
        .with_criterion(RankingCriterion::Maximum)
        .with_cluster_k(2)
        .analyze_with_counts(&reduced.measurements, &reduced.counts)
        .map_err(|e| e.to_string())?;
    Ok(limba::viz::report::render_with_coverage(
        &analysis, coverage,
    ))
}

/// The evolution section `limba analyze --windows` prints.
fn evolution(windows: Result<Vec<ReducedTrace>, TraceError>) -> Result<String, String> {
    let matrices: Vec<_> = windows
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|w| w.measurements)
        .collect();
    let evolution =
        limba::analysis::evolution::imbalance_evolution(&matrices, DispersionKind::Euclidean, 0.02)
            .map_err(|e| e.to_string())?;
    Ok(limba::viz::report::render_evolution(&evolution, WINDOWS))
}

/// A served outcome with the serving layer's wrapping removed.
fn served(result: Result<String, ServeError>) -> Result<String, String> {
    result.map_err(|e| match e {
        ServeError::Trace(e) => e.to_string(),
        ServeError::State(detail) => detail,
        other => other.to_string(),
    })
}

fn spool_path(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("limba-input-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("spool dir");
    dir.join(label)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every binary entry point agrees on every container version.
    #[test]
    fn every_binary_path_gives_the_same_result_or_error(seed in 0u64..u64::MAX) {
        let trace = arbitrary_trace(seed);
        for (version, bytes) in containers(&trace) {
            let decoded = binary::from_bytes(&bytes);
            let salvage_batch: Salvage = match &decoded {
                Ok(t) => salvage_outcome(reduce_checked(t)),
                Err(e) => Err(e.to_string()),
            };
            let windows_batch: Windows = match &decoded {
                Ok(t) => windows_outcome(reduce_windows(t, WINDOWS)),
                Err(e) => Err(e.to_string()),
            };
            for chunk in FEEDS {
                prop_assert_eq!(
                    &salvage_outcome(streamed_salvage(&bytes, chunk)),
                    &salvage_batch,
                    "{} salvage, feeds of {}", version, chunk
                );
                prop_assert_eq!(
                    &windows_outcome(streamed_windows(&bytes, chunk)),
                    &windows_batch,
                    "{} windows, feeds of {}", version, chunk
                );
            }

            let spool = spool_path(&format!("{seed}-{version}.trc"));
            std::fs::write(&spool, &bytes).expect("write spool");
            let batch_report = match &decoded {
                Ok(t) => report(reduce_checked(t)),
                Err(e) => Err(e.to_string()),
            };
            prop_assert_eq!(
                served(replay::complete_report(&StdVfs, &spool)),
                batch_report,
                "{} served report", version
            );
            let batch_evolution = match &decoded {
                Ok(t) => evolution(reduce_windows(t, WINDOWS)),
                Err(e) => Err(e.to_string()),
            };
            prop_assert_eq!(
                served(replay::evolution_report(&StdVfs, &spool, WINDOWS)),
                batch_evolution,
                "{} served evolution", version
            );
            std::fs::remove_file(&spool).ok();
        }
    }

    /// The one-pass salvage fold learns the columns a scan pass lists:
    /// on arbitrary traces and on traces with extra activities, it gives
    /// the scan-seeded fold's and the batch reduction's matrices,
    /// coverage or first error, in batches of every size — and, once
    /// the bytes decode, from the decoder at every feed size. (A
    /// one-pass reader of bytes that do not decode may meet a fold
    /// error before the damage; serve's replay holds such errors back.)
    #[test]
    fn one_pass_folds_match_scan_seeded_folds(seed in 0u64..u64::MAX) {
        for (label, trace) in [("arbitrary", arbitrary_trace(seed)), ("extras", extras_trace(seed).0)] {
            let batch = salvage_outcome(reduce_checked(&trace));
            for size in [1, 7, trace.events().len().max(1)] {
                let one_pass = salvage_outcome(one_pass_salvage(&trace, size));
                prop_assert_eq!(
                    &one_pass,
                    &salvage_outcome(scan_seeded_salvage(&trace, size)),
                    "{} trace, batches of {}", label, size
                );
                prop_assert_eq!(&one_pass, &batch, "{} trace, batches of {}", label, size);
            }
            let bytes = stream::to_stream_bytes(&trace, 5).expect("encodes");
            let Ok(decoded) = binary::from_bytes(&bytes) else {
                continue;
            };
            let batch = salvage_outcome(reduce_checked(&decoded));
            for chunk in FEEDS {
                let mut fold = SalvageSink::new(ActivitySet::standard());
                let one_pass = feed(&bytes, chunk, &mut fold)
                    .map(|()| fold.into_salvaged().expect("folded"));
                prop_assert_eq!(
                    &salvage_outcome(one_pass),
                    &batch,
                    "{} trace, feeds of {}", label, chunk
                );
            }
        }
    }

    /// Serve's one-pass replay prints the offline scan-and-fold report
    /// for a spool with extra activities, whole or cut short.
    #[test]
    fn served_reports_match_offline_scan_and_fold(seed in 0u64..u64::MAX) {
        let (trace, _) = extras_trace(seed);
        let bytes = stream::to_stream_bytes(&trace, 3).expect("encodes").to_vec();
        let spool = spool_path(&format!("{seed}-extras.trc"));
        std::fs::write(&spool, &bytes).expect("write spool");
        prop_assert_eq!(
            served(replay::complete_report(&StdVfs, &spool)),
            report(streamed_salvage(&bytes, 64 * 1024)),
            "complete report"
        );
        let cut = Rng(seed).below(bytes.len());
        std::fs::write(&spool, &bytes[..cut]).expect("write cut spool");
        prop_assert_eq!(
            served(replay::partial_report(&StdVfs, &spool)),
            report(salvaged_prefix(&bytes[..cut])),
            "partial report, cut at {}", cut
        );
        std::fs::remove_file(&spool).ok();
    }

    /// Text sorts each rank on load: a text trace reduces like its
    /// per-rank-sorted form does in binary, and non-finite times fail
    /// with the binary reader's named error.
    #[test]
    fn text_gives_the_result_of_the_sorted_form(seed in 0u64..u64::MAX) {
        let trace = arbitrary_trace(seed);
        let from_text = text::from_str(&text::to_string(&trace));
        if trace.events().iter().any(|e| !e.time.is_finite()) {
            let binary_error = binary::from_bytes(&legacy_bytes(&trace, 2))
                .expect_err("non-finite times do not decode");
            prop_assert_eq!(
                from_text.expect_err("non-finite times do not parse").to_string(),
                binary_error.to_string()
            );
            return Ok(());
        }
        let from_text = from_text.expect("finite text parses");
        let sorted = binary::from_bytes(&binary::to_bytes(&sort_ranks(&trace)))
            .expect("sorted form decodes");
        prop_assert_eq!(&from_text, &sorted);
        prop_assert_eq!(
            salvage_outcome(reduce_checked(&from_text)),
            salvage_outcome(reduce_checked(&sorted))
        );
        prop_assert_eq!(
            windows_outcome(reduce_windows(&from_text, WINDOWS)),
            windows_outcome(reduce_windows(&sorted, WINDOWS))
        );
    }
}

/// The generator covers what the contract is about: across the seeds
/// the properties run, some traces reduce, some are out of order, some
/// fail structurally, and some carry non-finite times.
#[test]
fn the_generator_covers_every_kind_of_input() {
    let (mut ok, mut backwards, mut structural, mut non_finite) = (0, 0, 0, 0);
    for seed in 0..400 {
        let trace = arbitrary_trace(seed);
        if trace.events().iter().any(|e| !e.time.is_finite()) {
            non_finite += 1;
            continue;
        }
        match reduce_checked(&trace) {
            Ok(_) => ok += 1,
            Err(TraceError::NonMonotoneTime { .. }) => backwards += 1,
            Err(TraceError::MalformedEvent { .. }) => structural += 1,
            Err(other) => panic!("seed {seed}: unexpected {other}"),
        }
    }
    for (what, count) in [
        ("reducing", ok),
        ("out-of-order", backwards),
        ("structurally malformed", structural),
        ("non-finite", non_finite),
    ] {
        assert!(count >= 20, "only {count} of 400 traces are {what}");
    }
}

/// The extras generator covers what the one-pass folds must learn:
/// either extra seen first, and each extra complete, only on a
/// truncated rank, and left open at the end.
#[test]
fn the_extras_generator_covers_every_placement() {
    let mut orders = [0; 2];
    let mut placements = [0; 3];
    for seed in 0..200 {
        let (trace, modes) = extras_trace(seed);
        let columns = reduce_checked(&trace)
            .expect("extras traces salvage")
            .reduced
            .measurements
            .activities()
            .clone();
        assert_eq!(columns.len(), 6, "seed {seed}");
        orders[usize::from(columns.kind(4) == Some(ActivityKind::MemoryAccess))] += 1;
        for mode in modes {
            placements[mode as usize] += 1;
        }
    }
    assert!(
        orders.iter().all(|&n| n >= 40),
        "first-seen orders {orders:?}"
    );
    assert!(
        placements.iter().all(|&n| n >= 60),
        "placements {placements:?}"
    );
}
